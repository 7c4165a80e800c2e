// Bit-packed variants of the paper's algorithms (beyond the paper): BREMSP is
// AREMSP with the byte-per-pixel scan replaced by a word-parallel run scan
// over a 1-bit-per-pixel raster, and PBREMSP parallelizes it with PAREMSP's
// chunked disjoint-label-range / boundary-merge / flatten machinery. The scan
// phase — which dominates PAREMSP's runtime (the paper's Fig. 5a plots its
// speedup alone) — touches 64 pixels per word load and calls the union-find
// sink per run instead of per pixel, and the labeling phase writes the final
// raster run-by-run instead of pixel-by-pixel. BREMSP is PBREMSP's driver at
// one thread.
//
// The Stats entry points replace the labeling phase with a run fold: each run
// is folded, under its final label, into per-component statistics
// accumulators (stats.Acc), so a caller that needs only the count and the
// statistics never materializes a label raster.

package core

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binimg"
	"repro/internal/cancel"
	"repro/internal/scan"
	"repro/internal/stats"
	"repro/internal/unionfind"
)

// BREMSP is the bit-packed sequential algorithm: pack to 1 bpp, run-based
// scan (sink per run), FLATTEN, run-by-run labeling. Labels img into lm
// (consecutive labels 1..n in raster order of each component's first pixel,
// background 0) and returns n with the phase times of PBREMSP at one
// thread. The packing pass runs at memcpy speed and is not polled; the scan
// and relabel passes are.
func BREMSP(ctx context.Context, img *binimg.Image, lm *binimg.LabelMap, sc *Scratch, _ Options) (int, PhaseTimes, error) {
	return PBREMSP(ctx, img, lm, sc, Options{Threads: 1})
}

// BREMSPBitmap is BREMSP over an already-packed bitmap — the entry point for
// callers that hold the packed raster natively (the service's raw-PNM ingest
// decodes straight into one, skipping the byte raster entirely).
func BREMSPBitmap(ctx context.Context, bm *binimg.Bitmap, lm *binimg.LabelMap, sc *Scratch, _ Options) (int, PhaseTimes, error) {
	return PBREMSPBitmap(ctx, bm, lm, sc, Options{Threads: 1})
}

// BREMSPStats is BREMSPBitmap without the label raster (see PBREMSPStats).
func BREMSPStats(ctx context.Context, bm *binimg.Bitmap, sc *Scratch, _ Options, comps bool) (int, []stats.Component, PhaseTimes, error) {
	return PBREMSPStats(ctx, bm, sc, Options{Threads: 1}, comps)
}

// PBREMSP labels img into lm with the parallel bit-packed algorithm and
// returns the component count and per-phase timings. Each chunk packs its
// own rows into the shared bitmap (rows never share words, so the packing is
// race-free) before scanning them, so the packing cost parallelizes with the
// scan and is reported inside the Scan phase. Final labels are numbered in
// raster order of each component's first pixel within chunk-major order (a
// component is numbered by the first chunk it reaches). The chunked scans
// and relabels poll ctx per row block and ctx is also checked between
// phases; a canceled run returns ctx's error with the phase times
// accumulated so far.
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

// pbremsp runs phases I-III (labelRuns) and phase IV, the run-by-run
// relabel into lm.
func pbremsp(ctx context.Context, bm *binimg.Bitmap, src *binimg.Image, lm *binimg.LabelMap, sc *Scratch, opt Options) (int, PhaseTimes, error) {
	lm.Reset(bm.Width, bm.Height)
	r, err := labelRuns(ctx, bm, src, sc, opt)
	if err != nil || r.n == 0 {
		return int(r.n), r.times, err
	}
	return r.finish(ctx, func(c int, done <-chan struct{}) bool {
		return unionfind.RelabelRuns(lm.L, lm.Width, r.p, r.runSets[c], done)
	})
}

// PBREMSPStats is PBREMSPBitmap without the label raster: the scan, merge
// and flatten phases are PBREMSP's, and the final pass folds every run,
// under the final label FLATTEN gave it, into per-component statistics
// instead of writing the run into a label map. It returns the component
// count and, when comps is set, the per-component statistics indexed by
// label-1 — identical to stats.Components over PBREMSPBitmap's label map.
// With comps unset only the count is needed and the final pass is skipped.
// The fold is timed as the Relabel phase: it is the pass that assigns
// final labels.
//
// With Threads > 1 the chunks fold concurrently. Components first reached
// by chunk c own the final labels FLATTEN assigned to c's label range, a
// disjoint slice of the shared accumulator table, so chunks write them
// without synchronization. Components reaching down from the chunks above
// (necessarily through c's first row) fold into a small chunk-private table
// that is reduced into the shared one after the chunks finish.
func PBREMSPStats(ctx context.Context, bm *binimg.Bitmap, sc *Scratch, opt Options, comps bool) (int, []stats.Component, PhaseTimes, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	r, err := labelRuns(ctx, bm, nil, sc, opt)
	if err != nil || !comps {
		return int(r.n), nil, r.times, err
	}
	accs := sc.accs(int(r.n), bm.Width, bm.Height)
	foreign := sc.foreignTables(len(r.runSets))
	n, times, err := r.finish(ctx, func(c int, done <-chan struct{}) bool {
		return foldRuns(r.runSets[c], r.p, accs, r.first[c], foreign[c], done)
	})
	if err != nil {
		return 0, nil, times, err
	}
	for c := 1; c < len(foreign); c++ {
		for i, l := range foreign[c].labels {
			accs[l-1].Fold(&foreign[c].accs[i])
		}
	}
	return n, stats.FromAccs(accs), times, nil
}

// runLabeling is the state PBREMSP's phases I-III leave for the final pass:
// the per-chunk labeled runs and the flattened parent array, which maps
// every provisional run label to its final label.
type runLabeling struct {
	p       []Label
	runSets []*scan.RunSet
	// first[c] is the first final label FLATTEN assigned to chunk c's label
	// range: the components first reached by chunk c are labeled
	// first[c]..first[c+1]-1.
	first      []Label
	n          Label
	times      PhaseTimes
	sequential bool // opt.SequentialRelabel or one chunk
}

// labelRuns runs PBREMSP's phases I-III over bm. When src is non-nil each
// chunk first packs its rows of src into bm (already Reset). A canceled run
// reports ctx's error with n == 0 and the phase times so far.
//
// Phase I divides the rows into Threads chunks and runs the run-based scan on
// every chunk concurrently, each chunk recording its labeled runs into its
// own RunSet. Chunk label ranges are disjoint (the chunk starting at row r
// draws from r*RunLabelStride(w)), so the shared parent array needs no
// synchronization during the scan. Phase II merges across chunk seams at run
// granularity: the first-row runs of every chunk but the first are united
// with the overlapping last-row runs of the chunk above using the concurrent
// MERGER. Phase III runs FLATTEN over the label ranges the chunks used, in
// chunk order, so final labels follow chunk-major raster order and the
// unused tail of every range is never swept (nor cleared beforehand).
func labelRuns(ctx context.Context, bm *binimg.Bitmap, src *binimg.Image, sc *Scratch, opt Options) (runLabeling, error) {
	threads := opt.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	w, h := bm.Width, bm.Height
	if w == 0 || h == 0 {
		return runLabeling{}, nil
	}
	threads = min(threads, h)
	starts := binimg.SplitEven(h, threads, 1)

	stride := Label(scan.RunLabelStride(w))
	p := sc.parentsUncleared(int(Label(h) * stride))
	r := runLabeling{
		p:          p,
		runSets:    sc.runSets(threads),
		first:      make([]Label, threads+1),
		sequential: opt.SequentialRelabel || threads == 1,
	}
	counts := make([]Label, threads)

	done := cancel.Done(ctx)
	var stop atomic.Bool

	// Phase I: concurrent chunk packs + run scans.
	t0 := time.Now()
	eachChunk(threads, true, func(c int) {
		rowStart, rowEnd := starts[c], starts[c+1]
		if src != nil {
			bm.FromImageRows(src, rowStart, rowEnd)
		}
		sink := NewRemSinkShared(p, Label(rowStart)*stride)
		if !scan.Runs(bm, sink, rowStart, rowEnd, r.runSets[c], done) {
			stop.Store(true)
		}
		counts[c] = sink.Count()
	})
	r.times.Scan = time.Since(t0)
	if stop.Load() {
		return r, cancel.Err(ctx)
	}

	// Phase II: run-granular boundary merges.
	t0 = time.Now()
	merge := mergeFunc(opt, p, sc)
	eachChunk(threads-1, !opt.SequentialBoundary, func(i int) {
		c := i + 1
		row := starts[c]
		scan.MergeRuns(r.runSets[c].RowRuns(row), r.runSets[c-1].RowRuns(row-1), merge)
	})
	r.times.Merge = time.Since(t0)
	if cancel.Stopped(done) {
		return r, cancel.Err(ctx)
	}

	// Phase III: FLATTEN over the used label ranges.
	t0 = time.Now()
	k := Label(1)
	for c := 0; c < threads; c++ {
		r.first[c] = k
		k = unionfind.FlattenRange(p, Label(starts[c])*stride+1, counts[c], k)
	}
	r.first[threads] = k
	r.times.Flatten = time.Since(t0)
	if cancel.Stopped(done) {
		return r, cancel.Err(ctx)
	}
	r.n = k - 1
	return r, nil
}

// finish runs phase IV — pass(c, done) once per chunk, concurrently unless
// the labeling is sequential — and times it as the Relabel phase.
func (r *runLabeling) finish(ctx context.Context, pass func(c int, done <-chan struct{}) bool) (int, PhaseTimes, error) {
	if len(r.runSets) == 0 {
		return 0, r.times, nil // empty raster: nothing to pass over
	}
	done := cancel.Done(ctx)
	var stop atomic.Bool
	t0 := time.Now()
	eachChunk(len(r.runSets), !r.sequential, func(c int) {
		if !stop.Load() && !pass(c, done) {
			stop.Store(true)
		}
	})
	r.times.Relabel = time.Since(t0)
	if stop.Load() {
		return 0, r.times, cancel.Err(ctx)
	}
	return int(r.n), r.times, nil
}

// eachChunk calls f(c) for c in [0, n): concurrently, one goroutine per
// chunk, when parallel is set and n > 1, else in order on the calling
// goroutine.
func eachChunk(n int, parallel bool, f func(c int)) {
	if !parallel || n <= 1 {
		for c := 0; c < n; c++ {
			f(c)
		}
		return
	}
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c)
		}()
	}
	wg.Wait()
}

// foreignTable holds one chunk's accumulators for the components that reach
// it from the chunks above: labels is sorted, accs[i] belongs to labels[i].
type foreignTable struct {
	labels []Label
	accs   []stats.Acc
}

// foldRuns is the label-map-free final pass over one chunk's runs: every
// run is folded into the accumulator of its final label p[run.Label].
// Labels >= own are the chunk's own and index accs directly; smaller ones
// belong to components first reached by a chunk above, which can only enter
// through the chunk's first row, so f is built from that row's runs. It
// polls done every PollRows rows and reports whether it ran to completion.
func foldRuns(rs *scan.RunSet, p []Label, accs []stats.Acc, own Label, f *foreignTable, done <-chan struct{}) bool {
	f.labels = f.labels[:0]
	f.accs = f.accs[:0]
	for _, r := range rs.RowRuns(rs.Row0) {
		if l := p[r.Label]; l < own {
			f.labels = append(f.labels, l)
		}
	}
	slices.Sort(f.labels)
	f.labels = slices.Compact(f.labels)
	for range f.labels {
		f.accs = append(f.accs, stats.EmptyAcc(math.MaxInt32, math.MaxInt32))
	}
	for i, rows := 0, rs.Rows(); i < rows; i++ {
		if i%cancel.PollRows == 0 && cancel.Stopped(done) {
			return false
		}
		y := rs.Row0 + i
		for _, r := range rs.RowRuns(y) {
			var a *stats.Acc
			if l := p[r.Label]; l >= own {
				a = &accs[l-1]
			} else {
				j, _ := slices.BinarySearch(f.labels, l)
				a = &f.accs[j]
			}
			a.AddRun(y, int(r.Start), int(r.End))
		}
	}
	return true
}
