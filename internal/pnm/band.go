package pnm

import (
	"bufio"
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"

	"repro/internal/binimg"
)

// rowReader serves an image one row at a time in the raw Netpbm layout:
// MSB-first packed bytes for bitmaps (P1, P4) and 1- or 2-byte big-endian
// samples for graymaps (P2, P5). Plain rows are tokenized into that layout
// and a PNG's luminance becomes 16-bit samples, so every decoder needs one
// row loop per output kind (bits, gray), whatever the encoding.
type rowReader struct {
	br       *bufio.Reader
	img      image.Image // decoded PNG ("PNG" magic only)
	hdr      Header
	bytesPer int // bytes per graymap sample; 0 for bitmaps
	y        int // rows already read
	row      []byte
}

// newRowReader reads the PNM header from br and sizes the row buffer.
func newRowReader(br *bufio.Reader) (*rowReader, error) {
	hdr, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	r := &rowReader{br: br, hdr: hdr}
	if hdr.MaxVal == 0 {
		r.row = make([]byte, (hdr.Width+7)/8)
	} else {
		r.bytesPer = sampleBytes(hdr.MaxVal)
		r.row = make([]byte, hdr.Width*r.bytesPer)
	}
	return r, nil
}

// newPNGRows decodes a PNG stream and serves its rows as 16-bit graymap
// samples: each pixel's Rec. 601 luminance as the standard library's
// Gray16 conversion computes it, against maxval 65535.
func newPNGRows(r io.Reader) (*rowReader, error) {
	img, err := png.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("pnm: decoding png: %w", err)
	}
	b := img.Bounds()
	hdr := Header{Magic: "PNG", Width: b.Dx(), Height: b.Dy(), MaxVal: 65535}
	return &rowReader{img: img, hdr: hdr, bytesPer: 2, row: make([]byte, 2*b.Dx())}, nil
}

// next reads the next row into r.row.
func (r *rowReader) next() error {
	var err error
	switch r.hdr.Magic {
	case "P4", "P5":
		_, err = io.ReadFull(r.br, r.row)
	case "PNG":
		b := r.img.Bounds()
		for x := 0; x < r.hdr.Width; x++ {
			g := color.Gray16Model.Convert(r.img.At(b.Min.X+x, b.Min.Y+r.y)).(color.Gray16)
			r.row[2*x], r.row[2*x+1] = byte(g.Y>>8), byte(g.Y)
		}
	default: // plain: one decimal token per pixel
		clear(r.row)
		for x := 0; x < r.hdr.Width && err == nil; x++ {
			var v int
			v, err = readField(r.br, "sample", 0, max(r.hdr.MaxVal, 1))
			switch {
			case r.bytesPer == 0:
				r.row[x>>3] |= byte(v) << (7 - x&7)
			case r.bytesPer == 2:
				r.row[2*x], r.row[2*x+1] = byte(v>>8), byte(v)
			default:
				r.row[x] = byte(v)
			}
		}
	}
	if err != nil {
		return fmt.Errorf("pnm: %s row %d: %w", r.hdr.Magic, r.y, err)
	}
	r.y++
	return nil
}

// sample returns graymap sample x of a raw row.
func sample(row []byte, x, bytesPer int) int {
	if bytesPer == 2 {
		return int(row[2*x])<<8 | int(row[2*x+1])
	}
	return int(row[x])
}

// thresholdRow sets bit x of the zeroed words for every graymap sample x of
// row strictly greater than thresh: the one sample-to-bit loop. 8-bit rows
// take a byte loop of their own.
func thresholdRow(words []uint64, row []byte, bytesPer, thresh int) {
	if bytesPer == 1 {
		for x, v := range row {
			if int(v) > thresh {
				words[x>>6] |= 1 << (uint(x) & 63)
			}
		}
		return
	}
	for x := 0; x < len(row)/bytesPer; x++ {
		if sample(row, x, bytesPer) > thresh {
			words[x>>6] |= 1 << (uint(x) & 63)
		}
	}
}

// mapRow maps every graymap sample x of row to out[x] by f: the one
// sample-to-byte loop, scaling for gray rasters and thresholding for
// volumes. 8-bit samples are looked up in lut (byteLUT of f); 16-bit
// samples call f, since a 64 Ki-entry table would cost more to build than a
// small raster has pixels.
func mapRow(out []uint8, row []byte, bytesPer int, f func(int) uint8, lut *[256]uint8) {
	if bytesPer == 1 {
		for x, v := range row {
			out[x] = lut[v]
		}
		return
	}
	for x := range out {
		out[x] = f(sample(row, x, bytesPer))
	}
}

// BandReader decodes a PBM (P1/P4) or PGM (P2/P5) stream incrementally, a
// fixed number of rows at a time, into a bit-packed bitmap. It is the ingest
// side of the out-of-core band labeler (internal/band): only one band of
// pixels is ever resident, so the image height does not bound memory.
//
// P4 rows are already bit-packed and are reordered packed-to-packed;
// graymap rows are binarized with the im2bw threshold (luminance fraction
// strictly greater than level becomes foreground). DecodeBitmapInto reads a
// whole image through the same row loop.
type BandReader struct {
	rows *rowReader
	// thresh is the graymap foreground threshold in sample units: a sample
	// v is foreground iff v > thresh, the integer form of v > level*maxVal.
	thresh int
}

// NewBandReader reads the PNM header from r and prepares incremental row
// decoding.
func NewBandReader(r io.Reader, level float64) (*BandReader, error) {
	rows, err := newRowReader(bufio.NewReaderSize(r, 1<<16))
	if err != nil {
		return nil, err
	}
	return newBandReader(rows, level), nil
}

func newBandReader(rows *rowReader, level float64) *BandReader {
	return &BandReader{rows: rows, thresh: int(math.Floor(level * float64(rows.hdr.MaxVal)))}
}

// Width returns the image width from the header.
func (b *BandReader) Width() int { return b.rows.hdr.Width }

// Height returns the image height from the header.
func (b *BandReader) Height() int { return b.rows.hdr.Height }

// ReadBand decodes the next band of up to maxRows rows into dst (reshaped
// with Reset, so one bitmap can be reused for every band) and returns the
// number of rows delivered. After the final row it returns (0, io.EOF).
func (b *BandReader) ReadBand(dst *binimg.Bitmap, maxRows int) (int, error) {
	if maxRows <= 0 {
		return 0, fmt.Errorf("pnm: ReadBand maxRows %d, want >= 1", maxRows)
	}
	r := b.rows
	rows := min(r.hdr.Height-r.y, maxRows)
	if rows == 0 {
		return 0, io.EOF
	}
	dst.Reset(r.hdr.Width, rows)
	tail := dst.TailMask()
	for i := 0; i < rows; i++ {
		if err := r.next(); err != nil {
			return 0, err
		}
		if r.bytesPer == 0 {
			packP4Row(dst.Row(i), r.row, tail)
		} else {
			thresholdRow(dst.Row(i), r.row, r.bytesPer, b.thresh)
		}
	}
	return rows, nil
}

// readAll decodes every remaining row into dst as one band.
func (b *BandReader) readAll(dst *binimg.Bitmap) error {
	if b.rows.y == b.rows.hdr.Height {
		dst.Reset(b.rows.hdr.Width, 0)
		return nil
	}
	_, err := b.ReadBand(dst, b.rows.hdr.Height-b.rows.y)
	return err
}

// NewBandReaderBytes is NewBandReader over an in-memory encoding; tests and
// benchmarks stream generated images this way.
func NewBandReaderBytes(data []byte, level float64) (*BandReader, error) {
	return NewBandReader(bytes.NewReader(data), level)
}
