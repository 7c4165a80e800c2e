// Bit-packed variants of the paper's algorithms (beyond the paper): BREMSP is
// AREMSP with the byte-per-pixel scan replaced by a word-parallel run scan
// over a 1-bit-per-pixel raster, and PBREMSP parallelizes it with PAREMSP's
// chunked disjoint-label-range / boundary-merge / flatten machinery. The scan
// phase — which dominates PAREMSP's runtime (the paper's Fig. 5a plots its
// speedup alone) — touches 64 pixels per word load and calls the union-find
// sink per run instead of per pixel, and the labeling phase writes the final
// raster run-by-run instead of pixel-by-pixel.

package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binimg"
	"repro/internal/cancel"
	"repro/internal/scan"
	"repro/internal/unionfind"
)

// BREMSP is the bit-packed sequential algorithm: pack to 1 bpp, run-based
// scan (sink per run), FLATTEN, run-by-run labeling. Labels img into lm
// (consecutive labels 1..n, background 0) and returns n. The packing pass
// runs at memcpy speed and is not polled; the scan and relabel passes are.
func BREMSP(ctx context.Context, img *binimg.Image, lm *binimg.LabelMap, sc *Scratch, opt Options) (int, PhaseTimes, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	bm := sc.bitmap()
	bm.FromImage(img)
	return BREMSPBitmap(ctx, bm, lm, sc, opt)
}

// BREMSPBitmap is BREMSP over an already-packed bitmap — the entry point for
// callers that hold the packed raster natively (the service's PBM P4 fast
// path decodes straight into one, skipping the byte raster entirely).
func BREMSPBitmap(ctx context.Context, bm *binimg.Bitmap, lm *binimg.LabelMap, sc *Scratch, _ Options) (int, PhaseTimes, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	lm.Reset(bm.Width, bm.Height)
	if bm.Width == 0 || bm.Height == 0 {
		return 0, PhaseTimes{}, nil
	}
	done := cancel.Done(ctx)
	sink := &RemSink{p: sc.Parents(scan.MaxRunLabels(bm.Width, bm.Height))}
	rs := sc.runSets(1)[0]
	if !scan.Runs(bm, sink, 0, bm.Height, rs, done) {
		return 0, PhaseTimes{}, cancel.Err(ctx)
	}
	n := unionfind.Flatten(sink.p, sink.count)
	if !unionfind.RelabelRuns(lm.L, lm.Width, sink.p, rs, done) {
		return 0, PhaseTimes{}, cancel.Err(ctx)
	}
	return int(n), PhaseTimes{}, nil
}

// PBREMSP labels img into lm with the parallel bit-packed algorithm and
// returns the component count and per-phase timings. Each chunk packs its
// own rows into the shared bitmap (rows never share words, so the packing is
// race-free) before scanning them, so the packing cost parallelizes with the
// scan and is reported inside the Scan phase. The chunked scans and relabels
// poll ctx per row block and ctx is also checked between phases; a
// canceled run returns ctx's error with the phase times accumulated so far.
func PBREMSP(ctx context.Context, img *binimg.Image, lm *binimg.LabelMap, sc *Scratch, opt Options) (int, PhaseTimes, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	bm := sc.bitmap()
	bm.Reset(img.Width, img.Height)
	return pbremsp(ctx, bm, img, lm, sc, opt)
}

// PBREMSPBitmap is PBREMSP over an already-packed bitmap.
func PBREMSPBitmap(ctx context.Context, bm *binimg.Bitmap, lm *binimg.LabelMap, sc *Scratch, opt Options) (int, PhaseTimes, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	return pbremsp(ctx, bm, nil, lm, sc, opt)
}

// pbremsp is the shared parallel driver. When src is non-nil each chunk packs
// its rows of src into bm (already Reset) before scanning.
//
// Phase I divides the rows into Threads chunks and runs the run-based scan on
// every chunk concurrently, each chunk recording its labeled runs into its
// own RunSet. Chunk label ranges are disjoint (the chunk starting at row r
// draws from r*RunLabelStride(w)), so the shared parent array needs no
// synchronization during the scan. Phase II merges across chunk seams at run
// granularity: the first-row runs of every chunk but the first are united
// with the overlapping last-row runs of the chunk above using the concurrent
// MERGER. Phase III runs the sparse FLATTEN; phase IV writes the final label
// map run-by-run.
func pbremsp(ctx context.Context, bm *binimg.Bitmap, src *binimg.Image, lm *binimg.LabelMap, sc *Scratch, opt Options) (int, PhaseTimes, error) {
	threads := opt.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	w, h := bm.Width, bm.Height
	lm.Reset(w, h)
	if w == 0 || h == 0 {
		return 0, PhaseTimes{}, nil
	}
	if threads > h {
		threads = h
	}
	starts := rowChunkStarts(h, threads)

	stride := Label(scan.RunLabelStride(w))
	maxLabel := Label(h) * stride
	p := sc.Parents(int(maxLabel))
	runSets := sc.runSets(threads)

	done := cancel.Done(ctx)
	var times PhaseTimes
	var stop atomic.Bool

	// Phase I: concurrent chunk packs + run scans.
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < threads; c++ {
		rowStart, rowEnd := starts[c], starts[c+1]
		rs := runSets[c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if src != nil {
				bm.FromImageRows(src, rowStart, rowEnd)
			}
			sink := NewRemSinkShared(p, Label(rowStart)*stride)
			if !scan.Runs(bm, sink, rowStart, rowEnd, rs, done) {
				stop.Store(true)
			}
		}()
	}
	wg.Wait()
	times.Scan = time.Since(t0)
	if stop.Load() {
		return 0, times, cancel.Err(ctx)
	}

	// Phase II: run-granular boundary merges.
	t0 = time.Now()
	merge := mergeFunc(opt, p, sc)
	mergeChunk := func(c int) {
		row := starts[c]
		scan.MergeRuns(runSets[c].RowRuns(row), runSets[c-1].RowRuns(row-1), merge)
	}
	if opt.SequentialBoundary {
		for c := 1; c < threads; c++ {
			mergeChunk(c)
		}
	} else {
		for c := 1; c < threads; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mergeChunk(c)
			}()
		}
		wg.Wait()
	}
	times.Merge = time.Since(t0)
	if cancel.Stopped(done) {
		return 0, times, cancel.Err(ctx)
	}

	// Phase III: FLATTEN over the sparse label space.
	t0 = time.Now()
	n := unionfind.FlattenSparse(p, maxLabel)
	times.Flatten = time.Since(t0)
	if cancel.Stopped(done) {
		return 0, times, cancel.Err(ctx)
	}

	// Phase IV: run-by-run relabel, one goroutine per chunk.
	t0 = time.Now()
	if opt.SequentialRelabel || threads == 1 {
		for c := 0; c < threads; c++ {
			if !unionfind.RelabelRuns(lm.L, w, p, runSets[c], done) {
				stop.Store(true)
				break
			}
		}
	} else {
		for c := 0; c < threads; c++ {
			rs := runSets[c]
			wg.Add(1)
			go func() {
				defer wg.Done()
				if !unionfind.RelabelRuns(lm.L, w, p, rs, done) {
					stop.Store(true)
				}
			}()
		}
		wg.Wait()
	}
	times.Relabel = time.Since(t0)
	if stop.Load() {
		return 0, times, cancel.Err(ctx)
	}

	return int(n), times, nil
}

// rowChunkStarts splits h rows over threads chunks as evenly as possible
// (len = threads+1; no row-pair constraint — the run scan is single-row).
func rowChunkStarts(h, threads int) []int {
	starts := make([]int, threads+1)
	base, rem := h/threads, h%threads
	row := 0
	for c := 0; c < threads; c++ {
		starts[c] = row
		row += base
		if c < rem {
			row++
		}
	}
	starts[threads] = h
	return starts
}
