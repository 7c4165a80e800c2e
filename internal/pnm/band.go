package pnm

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"

	"repro/internal/binimg"
)

// BandReader decodes a raw PBM (P4) or raw PGM (P5) stream incrementally, a
// fixed number of rows at a time, into a bit-packed bitmap. It is the ingest
// side of the out-of-core band labeler (internal/band): only one band of
// pixels is ever resident, so the image height does not bound memory.
//
// P4 rows are already bit-packed and are reordered packed-to-packed; P5 rows
// are binarized with the im2bw threshold the whole-image decoders use
// (luminance fraction strictly greater than level becomes foreground).
// DecodeBitmapInto reads a whole image through the same row loop.
type BandReader struct {
	br       *bufio.Reader
	width    int
	height   int
	raw4     bool // true = P4, false = P5
	bytesPer int  // P5 bytes per sample (1 or 2)
	// thresh is the P5 foreground threshold in sample units: a sample v is
	// foreground iff v > thresh, the integer form of v > level*maxVal.
	thresh int
	y      int // rows already delivered
	rowBuf []byte
}

// NewBandReader reads the PNM header from r and prepares incremental row
// decoding. Only the raw formats are supported: band decoding needs a known
// bytes-per-row layout, which the plain (ASCII) formats do not have.
func NewBandReader(r io.Reader, level float64) (*BandReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := readToken(br)
	if err != nil {
		return nil, fmt.Errorf("pnm: reading magic: %w", err)
	}
	b := &BandReader{br: br}
	switch magic {
	case "P4":
		b.raw4 = true
	case "P5":
	default:
		return nil, fmt.Errorf("pnm: band reader wants raw PBM (P4) or raw PGM (P5), got %q", magic)
	}
	b.width, b.height, err = readDims(br)
	if err != nil {
		return nil, err
	}
	if b.raw4 {
		b.rowBuf = make([]byte, (b.width+7)/8)
		return b, nil
	}
	maxVal, err := readMaxVal(br)
	if err != nil {
		return nil, err
	}
	b.bytesPer = sampleBytes(maxVal)
	b.thresh = int(math.Floor(level * float64(maxVal)))
	b.rowBuf = make([]byte, b.width*b.bytesPer)
	return b, nil
}

// Width returns the image width from the header.
func (b *BandReader) Width() int { return b.width }

// Height returns the image height from the header.
func (b *BandReader) Height() int { return b.height }

// ReadBand decodes the next band of up to maxRows rows into dst (reshaped
// with Reset, so one bitmap can be reused for every band) and returns the
// number of rows delivered. After the final row it returns (0, io.EOF).
func (b *BandReader) ReadBand(dst *binimg.Bitmap, maxRows int) (int, error) {
	if maxRows <= 0 {
		return 0, fmt.Errorf("pnm: ReadBand maxRows %d, want >= 1", maxRows)
	}
	rows := b.height - b.y
	if rows == 0 {
		return 0, io.EOF
	}
	if rows > maxRows {
		rows = maxRows
	}
	dst.Reset(b.width, rows)
	tail := dst.TailMask()
	for i := 0; i < rows; i++ {
		if _, err := io.ReadFull(b.br, b.rowBuf); err != nil {
			return 0, fmt.Errorf("pnm: %s row %d: %w", b.format(), b.y+i, err)
		}
		words := dst.Row(i)
		switch {
		case b.raw4:
			packP4Row(words, b.rowBuf, tail)
		case b.bytesPer == 1:
			for x, v := range b.rowBuf {
				if int(v) > b.thresh {
					words[x>>6] |= 1 << (uint(x) & 63)
				}
			}
		default:
			for x := 0; x < b.width; x++ {
				if int(b.rowBuf[2*x])<<8|int(b.rowBuf[2*x+1]) > b.thresh {
					words[x>>6] |= 1 << (uint(x) & 63)
				}
			}
		}
	}
	b.y += rows
	return rows, nil
}

// readAll decodes every remaining row into dst as one band.
func (b *BandReader) readAll(dst *binimg.Bitmap) error {
	if b.y == b.height {
		dst.Reset(b.width, 0)
		return nil
	}
	_, err := b.ReadBand(dst, b.height-b.y)
	return err
}

func (b *BandReader) format() string {
	if b.raw4 {
		return "P4"
	}
	return "P5"
}

// NewBandReaderBytes is NewBandReader over an in-memory encoding; tests and
// benchmarks stream generated images this way.
func NewBandReaderBytes(data []byte, level float64) (*BandReader, error) {
	return NewBandReader(bytes.NewReader(data), level)
}
