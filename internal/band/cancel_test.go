package band_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/band"
	"repro/internal/binimg"
	"repro/internal/dataset"
	"repro/internal/pnm"
)

// cancelAfter wraps a band source and cancels its context once n bands have
// been delivered, counting every ReadBand call in reads.
type cancelAfter struct {
	band.Source
	n      int
	reads  int
	cancel context.CancelFunc
}

func (c *cancelAfter) ReadBand(dst *binimg.Bitmap, maxRows int) (int, error) {
	rows, err := c.Source.ReadBand(dst, maxRows)
	c.reads++
	if c.reads == c.n {
		c.cancel()
	}
	return rows, err
}

// TestStreamCancel: a pre-canceled context stops Stream before its first
// band, and a cancel between bands stops it at the next band boundary; both
// report context.Canceled and no result.
func TestStreamCancel(t *testing.T) {
	img := dataset.UniformNoise(64, 200, 0.5, 3)
	var pbm bytes.Buffer
	if err := pnm.EncodePBM(&pbm, img, true); err != nil {
		t.Fatal(err)
	}
	newSource := func() band.Source {
		src, err := pnm.NewBandReaderBytes(pbm.Bytes(), 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}

	t.Run("pre-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		src := &cancelAfter{Source: newSource(), cancel: func() {}}
		res, err := band.Stream(src, band.Options{BandRows: 16, Ctx: ctx})
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("Stream err = %v (nil result: %t), want context.Canceled and no result", err, res == nil)
		}
		if src.reads != 0 {
			t.Fatalf("read %d bands after a pre-canceled context, want 0", src.reads)
		}
	})

	t.Run("mid-run", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		src := &cancelAfter{Source: newSource(), n: 2, cancel: cancel}
		res, err := band.Stream(src, band.Options{BandRows: 16, Ctx: ctx})
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("Stream err = %v (nil result: %t), want context.Canceled and no result", err, res == nil)
		}
		if src.reads != 2 {
			t.Fatalf("read %d of 13 bands, want 2 (stop at the first band boundary after the cancel)", src.reads)
		}
	})
}
