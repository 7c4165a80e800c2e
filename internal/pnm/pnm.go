// Package pnm reads and writes the Netpbm formats the experiment pipeline
// uses for image exchange: PBM bitmaps (P1 plain / P4 raw) map directly onto
// binary images, PGM graymaps (P2 plain / P5 raw) are binarized with the
// im2bw(0.5) threshold the paper applies to its datasets. PNG import (via
// the standard library) covers the common interchange case.
//
// Convention note: in PBM, 1 is black. Following the paper's convention that
// object pixels are 1 and the binarized examples show dark objects on light
// background, PBM bit 1 decodes to foreground 1.
package pnm

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
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
// its pixel buffer is reused when large enough. Long-lived servers decode
// request bodies into pooled images this way.
func DecodeInto(r io.Reader, level float64, dst *binimg.Image) error {
	br := bufio.NewReader(r)
	magic, err := readToken(br)
	if err != nil {
		return fmt.Errorf("pnm: reading magic: %w", err)
	}
	switch magic {
	case "P1", "P4":
		return decodePBM(br, magic == "P4", dst)
	case "P2", "P5":
		return decodePGM(br, magic == "P5", level, dst)
	default:
		return fmt.Errorf("pnm: unsupported magic %q (want P1, P2, P4 or P5)", magic)
	}
}

func decodePBM(br *bufio.Reader, raw bool, im *binimg.Image) error {
	w, h, err := readDims(br)
	if err != nil {
		return err
	}
	im.Reset(w, h)
	if raw {
		// readToken consumed the single post-header whitespace byte, so the
		// packed rows start immediately: each row padded to a whole number
		// of bytes, MSB first.
		stride := (w + 7) / 8
		rowBuf := make([]byte, stride)
		for y := 0; y < h; y++ {
			if _, err := io.ReadFull(br, rowBuf); err != nil {
				return fmt.Errorf("pnm: P4 row %d: %w", y, err)
			}
			for x := 0; x < w; x++ {
				if rowBuf[x/8]&(0x80>>(x%8)) != 0 {
					im.Pix[y*w+x] = 1
				}
			}
		}
		return nil
	}
	for i := 0; i < w*h; i++ {
		tok, err := readToken(br)
		if err != nil {
			return fmt.Errorf("pnm: P1 pixel %d: %w", i, err)
		}
		switch tok {
		case "0":
			// background
		case "1":
			im.Pix[i] = 1
		default:
			return fmt.Errorf("pnm: P1 pixel %d: invalid token %q", i, tok)
		}
	}
	return nil
}

// DecodeBitmapInto decodes a raw PBM (P4) or raw PGM (P5) stream directly
// into a packed 1-bit-per-pixel bitmap, reshaped with Reset: BandReader's
// row loop reading the whole image as one band. P4 rows are already
// bit-packed and are reordered packed-to-packed; P5 rows are binarized at
// level (im2bw semantics, as DecodeInto) straight into the packed words.
// This is the ingest path of the bit-packed labelers (BREMSP/PBREMSP): the
// byte raster is never materialized.
func DecodeBitmapInto(r io.Reader, level float64, dst *binimg.Bitmap) error {
	b, err := NewBandReader(r, level)
	if err != nil {
		return err
	}
	return b.readAll(dst)
}

// DecodePBMBitmapInto is DecodeBitmapInto restricted to raw PBM (P4).
func DecodePBMBitmapInto(r io.Reader, dst *binimg.Bitmap) error {
	b, err := NewBandReader(r, 0)
	if err != nil {
		return err
	}
	if !b.raw4 {
		return fmt.Errorf("pnm: bitmap decode wants raw PBM magic P4, got %q", b.format())
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

func decodePGM(br *bufio.Reader, raw bool, level float64, im *binimg.Image) error {
	w, h, err := readDims(br)
	if err != nil {
		return err
	}
	maxVal, err := readMaxVal(br)
	if err != nil {
		return err
	}
	im.Reset(w, h)
	thresh := level * float64(maxVal)
	if raw {
		bytesPer := sampleBytes(maxVal)
		buf := make([]byte, w*bytesPer)
		for y := 0; y < h; y++ {
			if _, err := io.ReadFull(br, buf); err != nil {
				return fmt.Errorf("pnm: P5 row %d: %w", y, err)
			}
			for x := 0; x < w; x++ {
				var v int
				if bytesPer == 2 {
					v = int(buf[2*x])<<8 | int(buf[2*x+1])
				} else {
					v = int(buf[x])
				}
				if float64(v) > thresh {
					im.Pix[y*w+x] = 1
				}
			}
		}
		return nil
	}
	for i := 0; i < w*h; i++ {
		tok, err := readToken(br)
		if err != nil {
			return fmt.Errorf("pnm: P2 pixel %d: %w", i, err)
		}
		v, err := strconv.Atoi(tok)
		if err != nil || v < 0 || v > maxVal {
			return fmt.Errorf("pnm: P2 pixel %d: invalid value %q", i, tok)
		}
		if float64(v) > thresh {
			im.Pix[i] = 1
		}
	}
	return nil
}

// Header is a PNM header: the magic ("P1".."P5"), the dimensions and, for
// graymaps, the maxval (0 for bitmaps).
type Header struct {
	Magic         string
	Width, Height int
	MaxVal        int
}

// PayloadBytes returns the fewest body bytes that can carry the pixels the
// header declares: h*ceil(w/8) for raw PBM, h*w*bytes-per-sample for raw
// PGM, and w*h (one character per pixel) for the plain formats. A body cap
// compared against it bounds every allocation a decoder sizes from the
// header.
func (h Header) PayloadBytes() int64 {
	w, ht := int64(h.Width), int64(h.Height)
	switch h.Magic {
	case "P4":
		return ht * ((w + 7) / 8)
	case "P5":
		return ht * w * int64(sampleBytes(h.MaxVal))
	default:
		return w * ht
	}
}

// PeekHeader parses the PNM header at the front of br without consuming
// it, so a caller can check the declared dimensions against a budget
// before a decoder allocates for them. Malformed headers fail with the
// decoders' own errors; a header that does not fit in br's buffer fails
// too, so padding a header with comments cannot slip past the check.
func PeekHeader(br *bufio.Reader) (Header, error) {
	buf, peekErr := br.Peek(br.Size())
	rest := bytes.NewReader(buf)
	hr := bufio.NewReader(rest)
	var (
		h   Header
		err error
	)
	h.Magic, err = readToken(hr)
	switch {
	case err != nil:
		err = fmt.Errorf("pnm: reading magic: %w", err)
	case h.Magic != "P1" && h.Magic != "P2" && h.Magic != "P4" && h.Magic != "P5":
		err = fmt.Errorf("pnm: unsupported magic %q (want P1, P2, P4 or P5)", h.Magic)
	default:
		h.Width, h.Height, err = readDims(hr)
		if err == nil && (h.Magic == "P2" || h.Magic == "P5") {
			h.MaxVal, err = readMaxVal(hr)
		}
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
		cut := err == nil && hr.Buffered()+rest.Len() == 0 && !isSpace(buf[len(buf)-1])
		if cut || errors.Is(err, io.EOF) {
			return h, fmt.Errorf("pnm: header longer than %d bytes", len(buf))
		}
	}
	return h, err
}

// readDims reads and validates the width and height tokens.
func readDims(br *bufio.Reader) (int, int, error) {
	wTok, err := readToken(br)
	if err != nil {
		return 0, 0, fmt.Errorf("pnm: reading width: %w", err)
	}
	hTok, err := readToken(br)
	if err != nil {
		return 0, 0, fmt.Errorf("pnm: reading height: %w", err)
	}
	w, err := strconv.Atoi(wTok)
	if err != nil || w < 0 || w > maxDimension {
		return 0, 0, fmt.Errorf("pnm: invalid width %q", wTok)
	}
	h, err := strconv.Atoi(hTok)
	if err != nil || h < 0 || h > maxDimension {
		return 0, 0, fmt.Errorf("pnm: invalid height %q", hTok)
	}
	return w, h, nil
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
// Reset so its pixel buffer is reused when large enough. (The intermediate
// image.Image the standard decoder builds is still allocated per call.)
func DecodePNGInto(r io.Reader, level float64, dst *binimg.Image) error {
	src, err := png.Decode(r)
	if err != nil {
		return fmt.Errorf("pnm: decoding png: %w", err)
	}
	b := src.Bounds()
	dst.Reset(b.Dx(), b.Dy())
	thresh := level * 65535
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			g := color.Gray16Model.Convert(src.At(x, y)).(color.Gray16)
			if float64(g.Y) > thresh {
				dst.Pix[(y-b.Min.Y)*dst.Width+(x-b.Min.X)] = 1
			}
		}
	}
	return nil
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
