package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/binimg"
	"repro/internal/dataset"
)

// TestFoldCanceledMidPass cancels between the chunks of a sequential fold:
// the first chunk folds completely, the second sees the dead context at its
// first poll, and the pass reports the context's error.
func TestFoldCanceledMidPass(t *testing.T) {
	bm := &binimg.Bitmap{}
	bm.FromImage(dataset.UniformNoise(96, 400, 0.5, 3))
	sc := &Scratch{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := labelRuns(ctx, bm, nil, sc, Options{Threads: 2, SequentialRelabel: true})
	if err != nil || r.n == 0 {
		t.Fatalf("labelRuns: n=%d err=%v", r.n, err)
	}
	accs := sc.accs(int(r.n), bm.Width, bm.Height)
	foreign := sc.foreignTables(2)
	folded := 0
	n, _, err := r.finish(ctx, func(c int, done <-chan struct{}) bool {
		ok := foldRuns(r.runSets[c], r.p, accs, r.first[c], foreign[c], done)
		if ok {
			folded++
		}
		cancel()
		return ok
	})
	if !errors.Is(err, context.Canceled) || n != 0 || folded != 1 {
		t.Fatalf("n=%d err=%v folded=%d chunks, want 0, context.Canceled, 1", n, err, folded)
	}
}
