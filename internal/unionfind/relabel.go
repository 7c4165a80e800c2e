package unionfind

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cancel"
	"repro/internal/scan"
)

// CheckParents panics when a caller-provided parent array cannot hold need
// labels (slot 0 is the background). The array must also be zeroed, which
// FlattenSparse relies on to tell created labels from unused slots.
func CheckParents(p []Label, need int) {
	if len(p) < need+1 {
		panic(fmt.Sprintf("unionfind: parent slice holds %d labels, need %d", len(p)-1, need))
	}
}

// Relabel is the labeling phase over a flat label raster l of row width w:
// every provisional label v != 0 becomes p[v], the final label FLATTEN
// assigned (background stays 0). It rewrites blocks of max(PollRows·w, 4096)
// elements, polling done between blocks, and reports whether it ran to
// completion.
func Relabel(l, p []Label, w int, done <-chan struct{}) bool {
	block := max(cancel.PollRows*w, 1<<12)
	for lo := 0; lo < len(l); lo += block {
		if cancel.Stopped(done) {
			return false
		}
		seg := l[lo:min(lo+block, len(l))]
		for i, v := range seg {
			if v != 0 {
				seg[i] = p[v]
			}
		}
	}
	return true
}

// RelabelBands is Relabel split into threads contiguous bands of l, each
// rewritten by its own goroutine; threads <= 1 relabels on the calling
// goroutine. Reports whether every band ran to completion.
func RelabelBands(l, p []Label, w, threads int, done <-chan struct{}) bool {
	if threads <= 1 {
		return Relabel(l, p, w, done)
	}
	chunk := (len(l) + threads - 1) / threads
	var wg sync.WaitGroup
	var stop atomic.Bool
	for lo := 0; lo < len(l); lo += chunk {
		wg.Add(1)
		go func(part []Label) {
			defer wg.Done()
			if !Relabel(part, p, w, done) {
				stop.Store(true)
			}
		}(l[lo:min(lo+chunk, len(l))])
	}
	wg.Wait()
	return !stop.Load()
}

// RelabelRuns is the run-granular labeling phase: for every run of rs it
// fills the run's span of the label raster l (row width w) with
// p[run.Label] — one parent lookup per run instead of per pixel. It polls
// done every PollRows rows and reports whether it ran to completion.
func RelabelRuns(l []Label, w int, p []Label, rs *scan.RunSet, done <-chan struct{}) bool {
	for i, rows := 0, rs.Rows(); i < rows; i++ {
		if i%cancel.PollRows == 0 && cancel.Stopped(done) {
			return false
		}
		y := rs.Row0 + i
		base := y * w
		for _, r := range rs.RowRuns(y) {
			final := p[r.Label]
			seg := l[base+int(r.Start) : base+int(r.End)]
			for k := range seg {
				seg[k] = final
			}
		}
	}
	return true
}
