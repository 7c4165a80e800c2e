package pnm_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"image"
	"image/png"
	"io"
	"slices"
	"testing"

	"repro/internal/binimg"
	"repro/internal/grayccl"
	"repro/internal/pnm"
	"repro/internal/vol3d"
)

// pngHeaderOnly is a PNG cut after its IHDR chunk (with a valid CRC),
// declaring a w×h 8-bit gray image.
func pngHeaderOnly(w, h uint32) []byte {
	ihdr := []byte("IHDR")
	ihdr = binary.BigEndian.AppendUint32(ihdr, w)
	ihdr = binary.BigEndian.AppendUint32(ihdr, h)
	ihdr = append(ihdr, 8, 0, 0, 0, 0) // bit depth 8, gray, deflate, no filter, no interlace
	out := append([]byte("\x89PNG\r\n\x1a\n"), 0, 0, 0, 13)
	out = append(out, ihdr...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(ihdr))
}

// FuzzDecodePNM feeds arbitrary bodies to every decoder. None may panic; a
// successful decode has PeekHeader's dimensions and zero bitmap tail bits;
// the byte decoders equal the bitmap decoders unpacked, and the band reader
// read three rows at a time equals the whole-image decode. Bodies whose
// header declares more pixels than the body could carry are skipped, as
// the service rejects them before decoding.
func FuzzDecodePNM(f *testing.F) {
	for _, seed := range []string{
		"P1\n# a comment\n3 2\n1 0 1\n0 1 0\n",
		"P1\n2 1\n10\n",
		"P2\n4 1\n255\n0 127 128 255\n",
		"P2\n1 1\n255\n300\n",
		"P4\n9 2\n\xff\x80\x00\x80",
		"P4 # c\n9 2\n\xff\x80\xff\x80",
		"P4\n16 2\n\x00",
		"P5\n2 1\n65535\n\x00\x00\xff\xff",
		"P5\n3 2\n255\nabcdef",
		"P5\n7 0\n255\n",
		"P5\n2 1\n255\nab" + "P5\n2 1\n255\ncd",
		"P7\n1 1\n0\n",
		"P4\n1048576 1048576\n",
	} {
		f.Add([]byte(seed))
	}
	var png1 bytes.Buffer
	if err := png.Encode(&png1, image.NewGray(image.Rect(0, 0, 3, 2))); err != nil {
		f.Fatal(err)
	}
	f.Add(png1.Bytes())
	f.Add(pngHeaderOnly(1<<20, 1<<20))

	f.Fuzz(func(t *testing.T, data []byte) {
		// A window past the body's end: PeekHeader sees the whole body.
		hdr, peekErr := pnm.PeekHeader(bufio.NewReaderSize(bytes.NewReader(data), len(data)+16))
		if peekErr == nil && hdr.PayloadBytes() > int64(len(data)) {
			return
		}
		decodeBits, decodeBytes := pnm.DecodeBitmapInto, pnm.DecodeInto
		if peekErr == nil && hdr.Magic == "PNG" {
			decodeBits, decodeBytes = pnm.DecodePNGBitmapInto, pnm.DecodePNGInto
		}
		bm := &binimg.Bitmap{}
		bitsErr := decodeBits(bytes.NewReader(data), 0.5, bm)
		img := &binimg.Image{}
		bytesErr := decodeBytes(bytes.NewReader(data), 0.5, img)
		if (bitsErr == nil) != (bytesErr == nil) {
			t.Fatalf("bitmap decode: %v; byte decode: %v", bitsErr, bytesErr)
		}
		pnm.DecodeGrayInto(bytes.NewReader(data), &grayccl.Image{})
		pnm.DecodePNGGrayInto(bytes.NewReader(data), &grayccl.Image{})
		pnm.DecodeVolumeInto(bytes.NewReader(data), 0.5, &vol3d.Volume{})
		if bitsErr != nil {
			return
		}
		if peekErr != nil || bm.Width != hdr.Width || bm.Height != hdr.Height {
			t.Fatalf("decoded %dx%d, PeekHeader %+v (%v)", bm.Width, bm.Height, hdr, peekErr)
		}
		checkTailBits(t, bm)
		if !bm.ToImage().Equal(img) {
			t.Fatal("byte decode differs from the bitmap decode unpacked")
		}
		if hdr.Magic == "PNG" {
			return
		}
		src, err := pnm.NewBandReaderBytes(data, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		band := &binimg.Bitmap{}
		for y := 0; y < bm.Height; {
			n, err := src.ReadBand(band, 3)
			if err != nil {
				t.Fatalf("band reader at row %d: %v", y, err)
			}
			for i := 0; i < n; i++ {
				if !slices.Equal(band.Row(i), bm.Row(y+i)) {
					t.Fatalf("band row %d differs from the whole-image decode", y+i)
				}
			}
			y += n
		}
		if _, err := src.ReadBand(band, 3); err != io.EOF {
			t.Fatalf("band reader after the last row: %v, want io.EOF", err)
		}
	})
}
