package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/binimg"
	"repro/internal/cancel"
	"repro/internal/scan"
	"repro/internal/unionfind"
)

// MergerKind selects the concurrent union used in PAREMSP's boundary phase.
type MergerKind int

// Boundary-merge implementations.
const (
	// MergerLocked is the paper's Algorithm 8: lock-based concurrent REM
	// union (OpenMP lock array reproduced with striped sync.Mutex).
	MergerLocked MergerKind = iota
	// MergerCAS is the idiomatic lock-free variant built on
	// atomic.CompareAndSwapInt32 (ablation alternative).
	MergerCAS
)

// String names the merger for benchmark output.
func (m MergerKind) String() string {
	switch m {
	case MergerLocked:
		return "locked"
	case MergerCAS:
		return "cas"
	default:
		return fmt.Sprintf("MergerKind(%d)", int(m))
	}
}

// Options configures the parallel algorithms, PAREMSP and PBREMSP.
type Options struct {
	// Threads is the number of worker goroutines (the paper's OpenMP thread
	// count). 0 selects runtime.GOMAXPROCS(0).
	Threads int
	// Merger selects the concurrent boundary union (default MergerLocked,
	// the paper's choice).
	Merger MergerKind
	// LockStripes sizes the striped lock table for MergerLocked; 0 selects
	// unionfind.DefaultLockStripes. Must be a power of two.
	LockStripes int
	// SequentialBoundary forces the boundary merge loops onto one goroutine
	// (ablation; the paper parallelizes them with "pragma omp for").
	SequentialBoundary bool
	// SequentialRelabel forces the final labeling pass onto one goroutine
	// (ablation; the paper parallelizes it).
	SequentialRelabel bool
}

// PhaseTimes records per-phase wall time of one PAREMSP run. The paper's
// Fig. 5a plots speedup of Scan ("local") alone; Fig. 5b plots
// Scan+Merge ("local + merge").
type PhaseTimes struct {
	Scan    time.Duration // phase I: chunked AREMSP scans
	Merge   time.Duration // phase II: boundary-row merges
	Flatten time.Duration // phase III: FLATTEN over the label space
	Relabel time.Duration // phase IV: provisional -> final rewrite
}

// Total returns the sum of all phases.
func (p PhaseTimes) Total() time.Duration {
	return p.Scan + p.Merge + p.Flatten + p.Relabel
}

// Local returns the paper's "local" quantity (scan phase only, Fig. 5a).
func (p PhaseTimes) Local() time.Duration { return p.Scan }

// LocalMerge returns the paper's "local + merge" quantity (Fig. 5b).
func (p PhaseTimes) LocalMerge() time.Duration { return p.Scan + p.Merge }

// PAREMSP labels img into lm with the paper's parallel algorithm
// (Algorithm 7) and returns the component count and per-phase timings.
//
// Phase I divides the image row-wise into Threads chunks of whole row pairs
// (the scan processes two rows at a time) and runs the AREMSP scan on every
// chunk concurrently. Chunk label ranges are disjoint: the chunk starting at
// row r draws provisional labels from (r/2)*stride+1 where stride is the
// per-row-pair label budget, so no two pixels share a provisional label
// across chunks and the shared parent array needs no synchronization during
// the scan.
//
// Phase II merges across chunk seams: for every boundary row (the first row
// of every chunk but the first) and every foreground pixel e there, its
// already-labeled neighbors b, a, c in the row above belong to the previous
// chunk; each adjacency is united with the concurrent MERGER. Boundary rows
// are processed in parallel.
//
// Phase III runs FLATTEN (sparse form: untouched label slots are skipped so
// final labels stay consecutive). Phase IV rewrites the label raster.
//
// Reusing lm and sc across calls makes sustained labeling allocation-free;
// this is the entry point the service layer's buffer pools feed. The chunked
// scans and relabels poll ctx per row block and ctx is also checked
// between phases; a canceled run returns ctx's error with the phase times
// accumulated so far.
func PAREMSP(ctx context.Context, img *binimg.Image, lm *binimg.LabelMap, sc *Scratch, opt Options) (int, PhaseTimes, error) {
	threads := opt.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if sc == nil {
		sc = &Scratch{}
	}
	w, h := img.Width, img.Height
	lm.Reset(w, h)
	if w == 0 || h == 0 {
		return 0, PhaseTimes{}, nil
	}

	// Chunk geometry: numiter row pairs split across threads, each chunk an
	// even number of rows (paper Alg. 7 lines 2-7). A short image caps the
	// useful thread count.
	numPairs := (h + 1) / 2
	if threads > numPairs {
		threads = numPairs
	}
	starts := binimg.SplitEven(h, threads, 2)

	stride := Label(scan.RowPairLabelStride(w))
	maxLabel := Label(numPairs) * stride
	p := sc.Parents(int(maxLabel))

	done := cancel.Done(ctx)
	var times PhaseTimes
	var stop atomic.Bool

	// Phase I: concurrent chunk scans.
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < len(starts)-1; c++ {
		rowStart, rowEnd := starts[c], starts[c+1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			offset := Label(rowStart/2) * stride
			sink := NewRemSinkShared(p, offset)
			if !scan.PairRows(img, lm, sink, rowStart, rowEnd, done) {
				stop.Store(true)
			}
		}()
	}
	wg.Wait()
	times.Scan = time.Since(t0)
	if stop.Load() {
		return 0, times, cancel.Err(ctx)
	}

	// Phase II: boundary merges.
	t0 = time.Now()
	merge := mergeFunc(opt, p, sc)
	boundaries := starts[1 : len(starts)-1]
	if opt.SequentialBoundary {
		for _, row := range boundaries {
			mergeBoundaryRow(img, lm, merge, row)
		}
	} else {
		for _, row := range boundaries {
			row := row
			wg.Add(1)
			go func() {
				defer wg.Done()
				mergeBoundaryRow(img, lm, merge, row)
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

	// Phase IV: relabel.
	t0 = time.Now()
	relabelThreads := threads
	if opt.SequentialRelabel {
		relabelThreads = 1
	}
	relabeled := unionfind.RelabelBands(lm.L, p, w, relabelThreads, done)
	times.Relabel = time.Since(t0)
	if !relabeled {
		return 0, times, cancel.Err(ctx)
	}

	return int(n), times, nil
}

// mergeFunc returns the configured concurrent union bound to p, drawing the
// lock table from sc so repeated labelings reuse it.
func mergeFunc(opt Options, p []Label, sc *Scratch) func(x, y Label) {
	switch opt.Merger {
	case MergerCAS:
		return func(x, y Label) { unionfind.MergeCAS(p, x, y) }
	default:
		lt := sc.LockTable(opt.LockStripes)
		return func(x, y Label) { unionfind.MergeLocked(p, lt, x, y) }
	}
}

// mergeBoundaryRow unites every foreground pixel of the given chunk-start
// row with its foreground neighbors b, a, c in the row above (which belongs
// to the previous chunk). This is the paper's Alg. 7 lines 10-20.
func mergeBoundaryRow(img *binimg.Image, lm *binimg.LabelMap, merge func(x, y Label), row int) {
	w := img.Width
	pix := img.Pix
	lab := lm.L
	base := row * w
	up := base - w
	for x := 0; x < w; x++ {
		if pix[base+x] == 0 {
			continue
		}
		le := lab[base+x]
		if pix[up+x] != 0 { // b
			merge(le, lab[up+x])
			continue // b's row-above neighbors already cover a and c
		}
		if x > 0 && pix[up+x-1] != 0 { // a
			merge(le, lab[up+x-1])
		}
		if x+1 < w && pix[up+x+1] != 0 { // c
			merge(le, lab[up+x+1])
		}
	}
}
