package stream_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/band"
	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pnm"
	"repro/internal/stats"
	"repro/internal/stream"
)

// memSeeker is an in-memory io.ReadWriteSeeker standing in for the spill
// file.
type memSeeker struct {
	buf []byte
	off int
}

func (m *memSeeker) Write(p []byte) (int, error) {
	if m.off+len(p) > len(m.buf) {
		m.buf = append(m.buf[:m.off], p...)
	} else {
		copy(m.buf[m.off:], p)
	}
	m.off += len(p)
	return len(p), nil
}

func (m *memSeeker) Read(p []byte) (int, error) {
	n := copy(p, m.buf[m.off:])
	m.off += n
	return n, nil
}

func (m *memSeeker) Seek(off int64, whence int) (int64, error) {
	m.off = int(off)
	return off, nil
}

// TestLabelBandsMatchesInMemory runs the band-streaming CCL1 pipeline over
// generated images at seam-stressing band heights and checks the decoded
// label stream against an in-memory labeling: same partition (up to
// renumbering), consecutive final labels, and matching component counts.
func TestLabelBandsMatchesInMemory(t *testing.T) {
	for _, tc := range []struct {
		name string
		w, h int
		d    float64
	}{
		{"noise_mid", 100, 70, 0.5},
		{"noise_sparse", 64, 64, 0.05},
		{"noise_dense", 65, 33, 0.95},
		{"one_row", 90, 1, 0.5},
		{"one_col", 1, 90, 0.5},
	} {
		img := dataset.UniformNoise(tc.w, tc.h, tc.d, 42)
		var pbm bytes.Buffer
		if err := pnm.EncodePBM(&pbm, img, true); err != nil {
			t.Fatal(err)
		}
		for _, bandRows := range []int{1, 3, 16, 0} {
			src, err := pnm.NewBandReaderBytes(pbm.Bytes(), 0.5)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			res, err := stream.LabelBands(context.Background(), src, &memSeeker{}, &out, bandRows)
			if err != nil {
				t.Fatalf("%s/band%d: %v", tc.name, bandRows, err)
			}
			lm, n, err := stream.ReadLabels(&out)
			if err != nil {
				t.Fatalf("%s/band%d: decoding output: %v", tc.name, bandRows, err)
			}
			if n != res.NumComponents {
				t.Fatalf("%s/band%d: header claims %d components, result %d", tc.name, bandRows, n, res.NumComponents)
			}
			if err := stats.Validate(img, lm, n, true); err != nil {
				t.Fatalf("%s/band%d: invalid labeling: %v", tc.name, bandRows, err)
			}
			want, wn := inMemory(core.BREMSP, img)
			if wn != n {
				t.Fatalf("%s/band%d: %d components, in-memory found %d", tc.name, bandRows, n, wn)
			}
			if err := stats.Equivalent(lm, want); err != nil {
				t.Fatalf("%s/band%d: partition differs: %v", tc.name, bandRows, err)
			}
		}
	}
}

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

// cancelOnRewind is a spill that cancels its context when LabelBands rewinds
// it, i.e. between the band pass and the rewrite pass.
type cancelOnRewind struct {
	memSeeker
	cancel context.CancelFunc
}

func (c *cancelOnRewind) Seek(off int64, whence int) (int64, error) {
	c.cancel()
	return c.memSeeker.Seek(off, whence)
}

// TestLabelBandsCancel: LabelBands reports context.Canceled, and writes no
// label rows, for a context canceled before it starts, during the band pass
// and before the rewrite pass.
func TestLabelBandsCancel(t *testing.T) {
	img := dataset.UniformNoise(50, 300, 0.5, 5)
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
	check := func(t *testing.T, res *band.Result, err error, out *bytes.Buffer) {
		t.Helper()
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("LabelBands err = %v (nil result: %t), want context.Canceled and no result", err, res == nil)
		}
		if rowsOut := out.Len() - 16; rowsOut > 0 {
			t.Fatalf("%d label bytes written after the cancel", rowsOut)
		}
	}

	t.Run("pre-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var out bytes.Buffer
		res, err := stream.LabelBands(ctx, newSource(), &memSeeker{}, &out, 16)
		check(t, res, err, &out)
	})

	t.Run("mid-band-pass", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		src := &cancelAfter{Source: newSource(), n: 3, cancel: cancel}
		var out bytes.Buffer
		res, err := stream.LabelBands(ctx, src, &memSeeker{}, &out, 16)
		check(t, res, err, &out)
		if src.reads != 3 {
			t.Fatalf("read %d bands, want 3 (stop at the first band boundary after the cancel)", src.reads)
		}
	})

	t.Run("before-rewrite-pass", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var out bytes.Buffer
		res, err := stream.LabelBands(ctx, newSource(), &cancelOnRewind{cancel: cancel}, &out, 16)
		check(t, res, err, &out)
	})
}
