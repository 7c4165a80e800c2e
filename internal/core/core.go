// Package core implements the paper's contributions: the sequential two-pass
// CCL algorithms CCLREMSP (decision-tree scan + REM's union-find with
// splicing) and AREMSP (two-rows-at-a-time scan + REMSP), and the parallel
// algorithm PAREMSP (chunked AREMSP scan + concurrent boundary merge +
// flatten + relabel), plus their bit-packed variants BREMSP and PBREMSP.
//
// Every algorithm has one entry point of the form
//
//	Alg(ctx, src, lm, sc, opt) (n, PhaseTimes, error)
//
// labeling src into lm (reshaped with Reset) and drawing its equivalence
// buffers from sc (nil allocates fresh ones). opt and the returned
// PhaseTimes concern the parallel algorithms; the sequential ones ignore opt
// and report zero times.
//
// Cancellation is cooperative: the long row loops — scan and relabel, which
// together dominate the runtime — poll ctx's done channel once per
// cancel.PollRows rows and abort with ctx's error. A nil ctx (or one that
// can never be canceled) costs one predicted branch per row, so the entry
// points keep their benchmarked performance — see
// BenchmarkCancelCheck. The flatten and boundary-merge phases touch the
// equivalence table, not the raster, and are not polled internally; the
// parallel algorithms check ctx between phases instead. A canceled labeling
// leaves lm and sc in an undefined (but reusable — every entry point Resets
// them) state; callers must discard the result.
package core

import (
	"context"

	"repro/internal/binimg"
	"repro/internal/cancel"
	"repro/internal/scan"
	"repro/internal/stats"
	"repro/internal/unionfind"
)

// Label aliases the repository-wide label type.
type Label = binimg.Label

// RemSink records label equivalences in a REM parent array; it is the sink
// that turns a scan strategy into a *REMSP algorithm. It implements
// scan.Sink.
//
// A sink created with offset > 0 draws labels from [offset+1, ...); PAREMSP
// gives each chunk a disjoint range this way (paper Alg. 7: "count <- start
// x col"). The shared parent array is only written at indices the owning
// chunk creates, so concurrent chunk scans are data-race-free.
type RemSink struct {
	p     []Label
	count Label // last label handed out; next is count+1
}

// NewRemSink allocates a parent array for at most maxLabels labels, slot 0
// reserved for background.
func NewRemSink(maxLabels int) *RemSink {
	return &RemSink{p: make([]Label, maxLabels+1)}
}

// NewRemSinkShared wraps a shared parent array, handing out labels starting
// at offset+1.
func NewRemSinkShared(p []Label, offset Label) *RemSink {
	return &RemSink{p: p, count: offset}
}

// NewLabel creates the next provisional label: count++, p[count] = count
// (paper Alg. 6 lines 26-28).
func (s *RemSink) NewLabel() Label {
	s.count++
	s.p[s.count] = s.count
	return s.count
}

// Merge is REM's union with splicing (paper Alg. 2).
func (s *RemSink) Merge(x, y Label) Label {
	return unionfind.MergeRemSP(s.p, x, y)
}

// Count returns the highest label handed out.
func (s *RemSink) Count() Label { return s.count }

// Parents exposes the parent array for the flatten pass.
func (s *RemSink) Parents() []Label { return s.p }

// Scratch holds the reusable equivalence buffers of the entry points. A zero Scratch is ready to use; reusing one across calls amortizes
// the parent-array allocation, the dominant non-raster allocation of every
// REMSP algorithm. For the bit-packed algorithms (BREMSP, PBREMSP) it
// additionally retains the packed bitmap and the per-chunk run buffers. A
// Scratch must not be shared by concurrent labelings.
type Scratch struct {
	p       []Label
	lt      *unionfind.LockTable
	bm      *binimg.Bitmap
	runs    []*scan.RunSet
	acc     []stats.Acc
	foreign []*foreignTable
}

// Parents returns a zeroed parent array with n+1 slots (slot 0 is the
// background), growing the retained buffer only when needed. Zeroing is
// required by FlattenSparse, which treats p[i] == 0 as "label never created".
// The extension labelers (gray-level, 3D volume) draw their parent arrays
// here too, so one buffer grows to the largest request and serves every mode.
func (s *Scratch) Parents(n int) []Label {
	if cap(s.p) < n+1 {
		s.p = make([]Label, n+1)
	} else {
		s.p = s.p[:n+1]
		clear(s.p)
	}
	return s.p
}

// parentsUncleared is Parents without the zeroing, for the bit-packed
// labelers: their FLATTEN sweeps only the label ranges the chunks used, and
// the scan initializes every slot in those ranges.
func (s *Scratch) parentsUncleared(n int) []Label {
	if cap(s.p) < n+1 {
		s.p = make([]Label, n+1)
	}
	return s.p[:n+1]
}

// LockTable returns a retained lock table with the requested stripe count
// (0 selects the default), for the concurrent boundary merges of every
// parallel labeler. A table whose run has completed has every stripe
// unlocked, so reuse across labelings is safe.
func (s *Scratch) LockTable(stripes int) *unionfind.LockTable {
	want := stripes
	if want == 0 {
		want = unionfind.DefaultLockStripes
	}
	if s.lt == nil || s.lt.Stripes() != want {
		s.lt = unionfind.NewLockTable(stripes)
	}
	return s.lt
}

// bitmap returns the retained packed raster.
func (s *Scratch) bitmap() *binimg.Bitmap {
	if s.bm == nil {
		s.bm = &binimg.Bitmap{}
	}
	return s.bm
}

// runSets returns n retained run buffers (one per chunk; BREMSP uses one).
func (s *Scratch) runSets(n int) []*scan.RunSet {
	for len(s.runs) < n {
		s.runs = append(s.runs, &scan.RunSet{})
	}
	return s.runs[:n]
}

// accs returns n retained statistics accumulators, emptied for a w x h
// raster.
func (s *Scratch) accs(n, w, h int) []stats.Acc {
	if cap(s.acc) < n {
		s.acc = make([]stats.Acc, n)
	}
	s.acc = s.acc[:n]
	for i := range s.acc {
		s.acc[i] = stats.EmptyAcc(w, h)
	}
	return s.acc
}

// foreignTables returns n retained per-chunk foreign accumulator tables.
func (s *Scratch) foreignTables(n int) []*foreignTable {
	for len(s.foreign) < n {
		s.foreign = append(s.foreign, &foreignTable{})
	}
	return s.foreign[:n]
}

// CCLREMSP is the paper's Algorithm 1: decision-tree scan phase, FLATTEN
// analysis phase, labeling phase. Labels img into lm (consecutive labels
// 1..n, background 0) and returns n.
func CCLREMSP(ctx context.Context, img *binimg.Image, lm *binimg.LabelMap, sc *Scratch, _ Options) (int, PhaseTimes, error) {
	return sequential(ctx, img, lm, sc, scan.DecisionTree)
}

// AREMSP is the paper's Algorithm 5: two-rows-at-a-time scan phase (Alg. 6),
// FLATTEN analysis phase (Alg. 3), labeling phase. This is the paper's best
// sequential algorithm and the one PAREMSP parallelizes.
func AREMSP(ctx context.Context, img *binimg.Image, lm *binimg.LabelMap, sc *Scratch, _ Options) (int, PhaseTimes, error) {
	return sequential(ctx, img, lm, sc, scan.PairRows)
}

// sequential runs one whole-image pixel scan, FLATTEN and the relabel pass.
func sequential(ctx context.Context, img *binimg.Image, lm *binimg.LabelMap, sc *Scratch,
	scanRows func(*binimg.Image, *binimg.LabelMap, scan.Sink, int, int, <-chan struct{}) bool) (int, PhaseTimes, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	lm.Reset(img.Width, img.Height)
	done := cancel.Done(ctx)
	sink := &RemSink{p: sc.Parents(scan.MaxProvisionalLabels(img.Width, img.Height))}
	if !scanRows(img, lm, sink, 0, img.Height, done) {
		return 0, PhaseTimes{}, cancel.Err(ctx)
	}
	n := unionfind.Flatten(sink.p, sink.count)
	if !unionfind.Relabel(lm.L, sink.p, lm.Width, done) {
		return 0, PhaseTimes{}, cancel.Err(ctx)
	}
	return int(n), PhaseTimes{}, nil
}
