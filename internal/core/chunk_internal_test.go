package core

import (
	"testing"

	"repro/internal/binimg"
)

// TestChunkStartsInvariants pins the chunk geometry PAREMSP's correctness
// rests on: chunks cover [0, h) exactly, every chunk starts on an even row
// (whole row pairs), and pair counts differ by at most one across chunks.
func TestChunkStartsInvariants(t *testing.T) {
	for h := 1; h <= 70; h++ {
		numPairs := (h + 1) / 2
		for threads := 1; threads <= numPairs; threads++ {
			starts := binimg.SplitEven(h, threads, 2)
			if len(starts) != threads+1 {
				t.Fatalf("h=%d threads=%d: %d boundaries, want %d", h, threads, len(starts), threads+1)
			}
			if starts[0] != 0 || starts[threads] != h {
				t.Fatalf("h=%d threads=%d: range [%d, %d), want [0, %d)", h, threads, starts[0], starts[threads], h)
			}
			minPairs, maxPairs := 1<<30, 0
			for c := 0; c < threads; c++ {
				if starts[c]%2 != 0 {
					t.Fatalf("h=%d threads=%d: chunk %d starts on odd row %d", h, threads, c, starts[c])
				}
				if starts[c+1] <= starts[c] {
					t.Fatalf("h=%d threads=%d: empty chunk %d (%d..%d)", h, threads, c, starts[c], starts[c+1])
				}
				pairs := (starts[c+1] - starts[c] + 1) / 2
				if pairs < minPairs {
					minPairs = pairs
				}
				if pairs > maxPairs {
					maxPairs = pairs
				}
			}
			if maxPairs-minPairs > 1 {
				t.Fatalf("h=%d threads=%d: pair counts unbalanced (%d..%d)", h, threads, minPairs, maxPairs)
			}
		}
	}
}

// TestMergeFuncVariants exercises both merger constructors directly.
func TestMergeFuncVariants(t *testing.T) {
	p := []Label{0, 1, 2, 3}
	merge := mergeFunc(Options{Merger: MergerCAS}, p, &Scratch{})
	merge(2, 3)
	if p[3] != 2 {
		t.Fatalf("CAS merge did not unite: %v", p)
	}
	p2 := []Label{0, 1, 2, 3}
	mergeL := mergeFunc(Options{Merger: MergerLocked, LockStripes: 8}, p2, &Scratch{})
	mergeL(1, 3)
	if p2[3] != 1 {
		t.Fatalf("locked merge did not unite: %v", p2)
	}
}
