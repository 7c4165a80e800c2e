// Package pnm reads and writes the Netpbm formats the experiment pipeline
// uses for image exchange: PBM bitmaps (P1 plain / P4 raw) map directly onto
// binary images, PGM graymaps (P2 plain / P5 raw) are binarized with the
// im2bw(0.5) threshold the paper applies to its datasets. PNG import (via
// the standard library) covers the common interchange case.
//
// Every decoder reads through one header parser (readHeader, behind
// PeekHeader too) and one row reader that serves raw, plain and PNG rows in
// the raw Netpbm layout. Binary decodes land in a packed bitmap; the byte
// decoders unpack it.
//
// Convention note: in PBM, 1 is black. Following the paper's convention that
// object pixels are 1 and the binarized examples show dark objects on light
// background, PBM bit 1 decodes to foreground 1.
package pnm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"image"
	"image/png"
	"io"
	"math"
	"math/bits"
	"strconv"

	"repro/internal/binimg"
)

// maxDimension guards against absurd headers in untrusted files.
const maxDimension = 1 << 20

// Decode reads a PBM (P1/P4) or PGM (P2/P5) stream into a binary image.
// Grayscale pixels are binarized with threshold level (im2bw semantics:
// luminance fraction strictly greater than level becomes foreground).
func Decode(r io.Reader, level float64) (*binimg.Image, error) {
	im := &binimg.Image{}
	if err := DecodeInto(r, level, im); err != nil {
		return nil, err
	}
	return im, nil
}

// DecodeInto is Decode into a caller-provided image, reshaped with Reset so
// its pixel buffer is reused when large enough: DecodeBitmapInto followed by
// Bitmap.ToImageInto, so the byte raster is unpacked from the one decode.
// Each call allocates one packed scratch bitmap (h·⌈w/64⌉ words) for that
// decode; callers that decode many images and can label bitmaps should use
// DecodeBitmapInto with a reused Bitmap instead.
func DecodeInto(r io.Reader, level float64, dst *binimg.Image) error {
	var bm binimg.Bitmap
	if err := DecodeBitmapInto(r, level, &bm); err != nil {
		return err
	}
	bm.ToImageInto(dst)
	return nil
}

// DecodeBitmapInto decodes a PBM (P1/P4) or PGM (P2/P5) stream directly
// into a packed 1-bit-per-pixel bitmap, reshaped with Reset: BandReader's
// row loop reading the whole image as one band. P4 rows are already
// bit-packed and are reordered packed-to-packed; graymap rows are binarized
// at level (im2bw semantics, as DecodeInto) straight into the packed words.
// This is the ingest path of the bit-packed labelers (BREMSP/PBREMSP): the
// byte raster is never materialized.
func DecodeBitmapInto(r io.Reader, level float64, dst *binimg.Bitmap) error {
	b, err := NewBandReader(r, level)
	if err != nil {
		return err
	}
	return b.readAll(dst)
}

// packP4Row reorders one raw-PBM row (MSB-first within each byte) into a
// row of zeroed LSB-first bitmap words — one Reverse8 per byte — and masks
// the row's padding bits with tail to preserve the Bitmap tail-bits-zero
// invariant.
func packP4Row(words []uint64, rowBuf []byte, tail uint64) {
	for i, bb := range rowBuf {
		if bb != 0 {
			words[i>>3] |= uint64(bits.Reverse8(bb)) << (uint(i&7) * 8)
		}
	}
	if len(words) > 0 {
		words[len(words)-1] &= tail
	}
}

// Header is an image header: the magic ("P1".."P5", or "PNG"), the
// dimensions and, for graymaps, the maxval (0 for bitmaps).
type Header struct {
	Magic         string
	Width, Height int
	MaxVal        int
}

// PayloadBytes returns the fewest body bytes that can carry the pixels the
// header declares: h*ceil(w/8) for raw PBM, h*w*bytes-per-sample for raw
// PGM, and w*h (one character per pixel) for the plain formats. A body cap
// compared against it bounds every allocation a decoder sizes from the
// header. A PNG is compressed, so its payload is that of a raw PBM with the
// same pixels: the most a body at the cap could carry.
func (h Header) PayloadBytes() int64 {
	w, ht := int64(h.Width), int64(h.Height)
	switch h.Magic {
	case "P4", "PNG":
		return ht * ((w + 7) / 8)
	case "P5":
		return ht * w * int64(sampleBytes(h.MaxVal))
	default:
		return w * ht
	}
}

// pngMagic is the PNG file signature.
const pngMagic = "\x89PNG\r\n\x1a\n"

// PeekHeader parses the header at the front of br without consuming it, so
// a caller can check the declared dimensions against a budget before a
// decoder allocates for them. A PNM header goes through the decoders' own
// parser; a PNG's dimensions come from its IHDR chunk (pngHeader).
// Malformed headers fail with the decoders' own errors; a PNM header that
// does not fit in br's buffer fails too, so padding it with comments cannot
// slip past the check.
func PeekHeader(br *bufio.Reader) (Header, error) {
	buf, peekErr := br.Peek(br.Size())
	rest := bytes.NewReader(buf)
	hr := bufio.NewReader(rest)
	var (
		h   Header
		err error
	)
	if bytes.HasPrefix(buf, []byte(pngMagic)) {
		h, err = pngHeader(buf)
	} else {
		h, err = readHeader(hr)
	}
	if err != nil && peekErr != nil && peekErr != io.EOF {
		// The body failed before the header ended (a read error, or the
		// body cap): that, not the truncated header, is the failure.
		return h, fmt.Errorf("pnm: reading header: %w", peekErr)
	}
	if peekErr == nil {
		// The window is full, so running out of it is not the end of the
		// body: a header cut short — or a last token the window may have
		// cut — is a header longer than the window.
		cut := err == nil && h.Magic != "PNG" && hr.Buffered()+rest.Len() == 0 && !isSpace(buf[len(buf)-1])
		if cut || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return h, fmt.Errorf("pnm: header longer than %d bytes", len(buf))
		}
	}
	return h, err
}

// pngHeader reads a PNG's dimensions from its IHDR chunk, which the PNG
// specification requires to follow the signature: a 4-byte length (13), the
// type "IHDR", then big-endian width and height. Only those fixed offsets
// are read, so no other chunk can push them out of the peek window; the
// decoder checks the rest of the stream, CRCs included.
func pngHeader(buf []byte) (Header, error) {
	h := Header{Magic: "PNG"}
	ihdr := buf[len(pngMagic):]
	if len(ihdr) < 16 {
		return h, fmt.Errorf("pnm: reading png header: %w", io.ErrUnexpectedEOF)
	}
	if binary.BigEndian.Uint32(ihdr) != 13 || string(ihdr[4:8]) != "IHDR" {
		return h, errors.New("pnm: png: first chunk is not a 13-byte IHDR")
	}
	w, ht := binary.BigEndian.Uint32(ihdr[8:]), binary.BigEndian.Uint32(ihdr[12:])
	if w == 0 || ht == 0 || w > math.MaxInt32 || ht > math.MaxInt32 {
		return h, fmt.Errorf("pnm: png: invalid dimensions %dx%d", w, ht)
	}
	h.Width, h.Height = int(w), int(ht)
	return h, nil
}

// errNoImage is readHeader's failure on a stream that ends before a magic
// number; a multi-frame reader takes it as the clean end of the stream.
var errNoImage = fmt.Errorf("pnm: reading magic: %w", io.EOF)

// readHeader parses a PNM header — magic, width, height and, for graymaps,
// maxval — and consumes the one whitespace byte after it, so raw rows start
// at the next byte. It is the one PNM header parser: PeekHeader and every
// decoder read through it.
func readHeader(br *bufio.Reader) (Header, error) {
	var h Header
	magic, err := readToken(br)
	switch {
	case err == io.EOF:
		return h, errNoImage
	case err != nil:
		return h, fmt.Errorf("pnm: reading magic: %w", err)
	}
	h.Magic = magic
	if magic != "P1" && magic != "P2" && magic != "P4" && magic != "P5" {
		return h, fmt.Errorf("pnm: unsupported magic %q (want P1, P2, P4 or P5)", magic)
	}
	if h.Width, err = readField(br, "width", 0, maxDimension); err != nil {
		return h, fmt.Errorf("pnm: %w", err)
	}
	if h.Height, err = readField(br, "height", 0, maxDimension); err != nil {
		return h, fmt.Errorf("pnm: %w", err)
	}
	if magic == "P2" || magic == "P5" {
		if h.MaxVal, err = readField(br, "maxval", 1, 65535); err != nil {
			return h, fmt.Errorf("pnm: %w", err)
		}
	}
	return h, nil
}

// readField reads one decimal token — a header field or a plain-format
// sample — and checks that it lies in [lo, hi].
func readField(br *bufio.Reader, name string, lo, hi int) (int, error) {
	tok, err := readToken(br)
	if err != nil {
		return 0, fmt.Errorf("reading %s: %w", name, err)
	}
	v, err := strconv.Atoi(tok)
	if err != nil || v < lo || v > hi {
		return 0, fmt.Errorf("invalid %s %q", name, tok)
	}
	return v, nil
}

// readToken returns the next whitespace-delimited token, skipping '#'
// comments (which run to end of line), per the Netpbm grammar.
func readToken(br *bufio.Reader) (string, error) {
	var tok []byte
	for {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && len(tok) > 0 {
				return string(tok), nil
			}
			return "", err
		}
		switch {
		case b == '#' && len(tok) == 0:
			if _, err := br.ReadString('\n'); err != nil && err != io.EOF {
				return "", err
			}
		case isSpace(b):
			if len(tok) > 0 {
				return string(tok), nil
			}
		default:
			tok = append(tok, b)
		}
	}
}

// isSpace reports whether b separates Netpbm header tokens.
func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

// EncodePBM writes im as a PBM bitmap: raw packed P4 when raw is true,
// plain-text P1 otherwise.
func EncodePBM(w io.Writer, im *binimg.Image, raw bool) error {
	bw := bufio.NewWriter(w)
	if raw {
		fmt.Fprintf(bw, "P4\n%d %d\n", im.Width, im.Height)
		stride := (im.Width + 7) / 8
		rowBuf := make([]byte, stride)
		for y := 0; y < im.Height; y++ {
			for i := range rowBuf {
				rowBuf[i] = 0
			}
			for x := 0; x < im.Width; x++ {
				if im.Pix[y*im.Width+x] != 0 {
					rowBuf[x/8] |= 0x80 >> (x % 8)
				}
			}
			if _, err := bw.Write(rowBuf); err != nil {
				return fmt.Errorf("pnm: writing P4 row %d: %w", y, err)
			}
		}
		return bw.Flush()
	}
	fmt.Fprintf(bw, "P1\n%d %d\n", im.Width, im.Height)
	for y := 0; y < im.Height; y++ {
		for x := 0; x < im.Width; x++ {
			if x > 0 {
				bw.WriteByte(' ')
			}
			bw.WriteByte('0' + im.Pix[y*im.Width+x])
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// EncodePGM writes a label map as a raw P5 graymap for quick visual
// inspection: background is 0 and labels cycle through 64..255, so adjacent
// components are usually distinguishable.
func EncodePGM(w io.Writer, lm *binimg.LabelMap) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "P5\n%d %d\n255\n", lm.Width, lm.Height)
	for _, v := range lm.L {
		if v == 0 {
			bw.WriteByte(0)
		} else {
			bw.WriteByte(byte(64 + (v-1)%192))
		}
	}
	return bw.Flush()
}

// DecodePNG reads a PNG stream and binarizes it with the im2bw(level)
// semantics the paper uses: the pixel's luminance (Rec. 601, as computed by
// the standard library's grayscale conversion) strictly greater than
// level*65535 becomes foreground.
func DecodePNG(r io.Reader, level float64) (*binimg.Image, error) {
	im := &binimg.Image{}
	if err := DecodePNGInto(r, level, im); err != nil {
		return nil, err
	}
	return im, nil
}

// DecodePNGInto is DecodePNG into a caller-provided image, reshaped with
// Reset so its pixel buffer is reused when large enough:
// DecodePNGBitmapInto followed by Bitmap.ToImageInto. The intermediate
// image.Image the standard decoder builds and one packed scratch bitmap are
// still allocated per call.
func DecodePNGInto(r io.Reader, level float64, dst *binimg.Image) error {
	var bm binimg.Bitmap
	if err := DecodePNGBitmapInto(r, level, &bm); err != nil {
		return err
	}
	bm.ToImageInto(dst)
	return nil
}

// DecodePNGBitmapInto decodes a PNG stream into a packed bitmap (reshaped
// with Reset) with DecodePNG's binarization: the PNG's luminance rows go
// through the graymap row loop as 16-bit samples.
func DecodePNGBitmapInto(r io.Reader, level float64, dst *binimg.Bitmap) error {
	rows, err := newPNGRows(r)
	if err != nil {
		return err
	}
	return newBandReader(rows, level).readAll(dst)
}

// EncodePNG writes a label map as a grayscale PNG (same palette rule as
// EncodePGM).
func EncodePNG(w io.Writer, lm *binimg.LabelMap) error {
	img := image.NewGray(image.Rect(0, 0, lm.Width, lm.Height))
	for i, v := range lm.L {
		if v != 0 {
			img.Pix[i] = byte(64 + (v-1)%192)
		}
	}
	return png.Encode(w, img)
}
