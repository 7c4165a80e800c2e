// Package grayccl implements the grayscale extension the paper claims for
// its algorithms ("our algorithm can be easily extended to gray scale
// images"): connected component labeling over gray-level rasters, where two
// adjacent pixels (8-connectivity) belong to the same component iff they
// hold the same gray value. Every pixel is labeled — there is no background.
//
// The implementation is the paper's machinery with the foreground test
// generalized to value equality: the two-rows-at-a-time scan (Alg. 6) plus
// REM's union-find with splicing, and the chunked parallel version with
// concurrent boundary merging (Alg. 7/8). Equality is transitive, which is
// what lets the pair-scan's case analysis skip neighbors the way the binary
// algorithm does; the tolerance-based variant (LabelDelta) loses
// transitivity and therefore uses the exhaustive-neighbor scan.
package grayccl

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/binimg"
	"repro/internal/cancel"
	"repro/internal/unionfind"
)

// Image is a grayscale raster: one byte per pixel, row-major.
type Image struct {
	Width  int
	Height int
	Pix    []uint8
}

// New returns a zeroed grayscale image.
func New(width, height int) *Image {
	if width < 0 || height < 0 {
		panic(fmt.Sprintf("grayccl: negative dimensions %dx%d", width, height))
	}
	return &Image{Width: width, Height: height, Pix: make([]uint8, width*height)}
}

// At returns the pixel at (x, y); it panics out of range.
func (im *Image) At(x, y int) uint8 {
	if x < 0 || x >= im.Width || y < 0 || y >= im.Height {
		panic(fmt.Sprintf("grayccl: At(%d,%d) out of range %dx%d", x, y, im.Width, im.Height))
	}
	return im.Pix[y*im.Width+x]
}

// Set writes the pixel at (x, y); it panics out of range.
func (im *Image) Set(x, y int, v uint8) {
	if x < 0 || x >= im.Width || y < 0 || y >= im.Height {
		panic(fmt.Sprintf("grayccl: Set(%d,%d) out of range %dx%d", x, y, im.Width, im.Height))
	}
	im.Pix[y*im.Width+x] = v
}

// MaxLabels bounds the provisional labels either gray labeler can create for
// a w×h image. Gray labels have no independent-set bound — every pixel may
// open a component — so the parallel scan budgets 2*w labels per row pair,
// ceil(h/2) pairs; the sequential scan's w*h bound is never larger.
func MaxLabels(w, h int) int {
	return ((h + 1) / 2) * (2 * w)
}

// Reset reshapes im to width×height, reusing the pixel buffer when large
// enough (the binimg.Image contract); contents are zeroed.
func (im *Image) Reset(width, height int) {
	if width < 0 || height < 0 {
		panic(fmt.Sprintf("grayccl: negative dimensions %dx%d", width, height))
	}
	n := width * height
	if cap(im.Pix) < n {
		im.Pix = make([]uint8, n)
	} else {
		im.Pix = im.Pix[:n]
		clear(im.Pix)
	}
	im.Width, im.Height = width, height
}

// Label computes the gray-level connected components of img sequentially
// (pair-row scan + REMSP), labeling into lm (reshaped with Reset): labels are
// consecutive 1..n; returns n. p is the equivalence buffer — a zeroed parent
// slice with at least MaxLabels(w,h)+1 slots (core.Scratch.Parents provides
// one).
//
// The scan and relabel passes poll ctx every cancel.PollRows rows; a nil ctx
// never cancels. A canceled labeling returns ctx's error and leaves lm
// undefined but reusable.
func Label(ctx context.Context, img *Image, lm *binimg.LabelMap, p []binimg.Label) (int, error) {
	w, h := img.Width, img.Height
	lm.Reset(w, h)
	if w == 0 || h == 0 {
		return 0, nil
	}
	unionfind.CheckParents(p, w*h)
	done := cancel.Done(ctx)
	count, ok := grayPairRows(img, lm, p, 0, 0, h, done)
	if !ok {
		return 0, cancel.Err(ctx)
	}
	n := unionfind.Flatten(p, count)
	if !unionfind.Relabel(lm.L, p, w, done) {
		return 0, cancel.Err(ctx)
	}
	return int(n), nil
}

// PLabel is the parallel version of Label: row-pair chunks scanned
// concurrently with disjoint label ranges, boundary rows merged with the
// concurrent lock-based REM union, sparse flatten, relabel. The buffers and
// cancellation follow Label; lt is the stripe-lock table for the boundary
// merges (nil allocates a default one) and threads <= 0 selects
// runtime.GOMAXPROCS(0). The boundary merge and flatten phases are not
// polled — they touch the equivalence table, not the raster — so ctx is
// checked between phases instead.
func PLabel(ctx context.Context, img *Image, lm *binimg.LabelMap, p []binimg.Label, lt *unionfind.LockTable, threads int) (int, error) {
	w, h := img.Width, img.Height
	lm.Reset(w, h)
	if w == 0 || h == 0 {
		return 0, nil
	}
	numPairs := (h + 1) / 2
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	threads = min(threads, numPairs)

	// Gray labels have no independent-set bound: every pixel may be a
	// component, so each row pair budgets 2*w labels.
	stride := binimg.Label(2 * w)
	maxLabel := binimg.Label(numPairs) * stride
	unionfind.CheckParents(p, int(maxLabel))
	done := cancel.Done(ctx)

	starts := binimg.SplitEven(h, threads, 2)

	var canceled atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < threads; c++ {
		rowStart, rowEnd := starts[c], starts[c+1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			offset := binimg.Label(rowStart/2) * stride
			if _, ok := grayPairRows(img, lm, p, offset, rowStart, rowEnd, done); !ok {
				canceled.Store(true)
			}
		}()
	}
	wg.Wait()
	if canceled.Load() {
		return 0, cancel.Err(ctx)
	}

	if lt == nil {
		lt = unionfind.NewLockTable(0)
	}
	for _, row := range starts[1:threads] {
		row := row
		wg.Add(1)
		go func() {
			defer wg.Done()
			mergeGrayBoundary(img, lm, p, lt, row)
		}()
	}
	wg.Wait()
	if cancel.Stopped(done) {
		return 0, cancel.Err(ctx)
	}

	n := unionfind.FlattenSparse(p, maxLabel)
	if !unionfind.Relabel(lm.L, p, w, done) {
		return 0, cancel.Err(ctx)
	}
	return int(n), nil
}

// grayPairRows is the pair-row scan of Alg. 6 with the foreground predicate
// generalized to gray-value equality. It labels rows [rowStart, rowEnd),
// drawing labels from offset+1 upward, polling done every cancel.PollRows row
// pairs. Returns the last label used and whether it ran to completion.
func grayPairRows(img *Image, lm *binimg.LabelMap, p []binimg.Label, offset binimg.Label, rowStart, rowEnd int, done <-chan struct{}) (binimg.Label, bool) {
	w := img.Width
	pix := img.Pix
	lab := lm.L
	count := offset
	newLabel := func() binimg.Label {
		count++
		p[count] = count
		return count
	}
	for r := rowStart; r < rowEnd; r += 2 {
		if (r-rowStart)%(2*cancel.PollRows) == 0 && cancel.Stopped(done) {
			return count, false
		}
		row := r * w
		up := row - w
		down := row + w
		hasUp := r > rowStart
		hasG := r+1 < rowEnd
		for x := 0; x < w; x++ {
			e := pix[row+x]
			// Neighbor "present" now means "equal gray value".
			var a, b, c, d bool
			if hasUp {
				b = pix[up+x] == e
				if x > 0 {
					a = pix[up+x-1] == e
				}
				if x+1 < w {
					c = pix[up+x+1] == e
				}
			}
			var f bool
			if x > 0 {
				d = pix[row+x-1] == e
				if hasG {
					f = pix[down+x-1] == e
				}
			}
			var le binimg.Label
			if !d {
				switch {
				case b:
					le = lab[up+x]
					if f {
						le = unionfind.MergeRemSP(p, le, lab[down+x-1])
					}
				case f:
					le = lab[down+x-1]
					if a {
						le = unionfind.MergeRemSP(p, le, lab[up+x-1])
					}
					if c {
						le = unionfind.MergeRemSP(p, le, lab[up+x+1])
					}
				case a:
					le = lab[up+x-1]
					if c {
						le = unionfind.MergeRemSP(p, le, lab[up+x+1])
					}
				case c:
					le = lab[up+x+1]
				default:
					le = newLabel()
				}
			} else {
				le = lab[row+x-1]
				if !b && c {
					le = unionfind.MergeRemSP(p, le, lab[up+x+1])
				}
			}
			lab[row+x] = le

			if hasG {
				g := pix[down+x]
				if g == e {
					lab[down+x] = le
					continue
				}
				// g differs from e: its visited same-value neighbors are d
				// and f only.
				var lg binimg.Label
				dg := x > 0 && pix[row+x-1] == g
				fg := x > 0 && pix[down+x-1] == g
				switch {
				case dg && fg:
					lg = unionfind.MergeRemSP(p, lab[row+x-1], lab[down+x-1])
				case dg:
					lg = lab[row+x-1]
				case fg:
					lg = lab[down+x-1]
				default:
					lg = newLabel()
				}
				lab[down+x] = lg
			}
		}
	}
	return count, true
}

// mergeGrayBoundary unites each pixel of a chunk-start row with its
// equal-valued neighbors in the row above.
func mergeGrayBoundary(img *Image, lm *binimg.LabelMap, p []binimg.Label, lt *unionfind.LockTable, row int) {
	w := img.Width
	pix := img.Pix
	lab := lm.L
	base := row * w
	up := base - w
	for x := 0; x < w; x++ {
		e := pix[base+x]
		if pix[up+x] == e {
			unionfind.MergeLocked(p, lt, lab[base+x], lab[up+x])
			continue
		}
		if x > 0 && pix[up+x-1] == e {
			unionfind.MergeLocked(p, lt, lab[base+x], lab[up+x-1])
		}
		if x+1 < w && pix[up+x+1] == e {
			unionfind.MergeLocked(p, lt, lab[base+x], lab[up+x+1])
		}
	}
}

// LabelDelta labels components under the tolerance predicate
// |v(p) - v(q)| <= delta for adjacent pixels (8-connectivity), taking the
// transitive closure: a gradual ramp is one component even though its ends
// differ by more than delta. Tolerance is not transitive, so the exhaustive
// Rosenfeld scan is used (every visited neighbor examined and merged). The
// buffers and cancellation follow Label.
func LabelDelta(ctx context.Context, img *Image, lm *binimg.LabelMap, p []binimg.Label, delta uint8) (int, error) {
	w, h := img.Width, img.Height
	lm.Reset(w, h)
	if w == 0 || h == 0 {
		return 0, nil
	}
	unionfind.CheckParents(p, w*h)
	done := cancel.Done(ctx)
	count, ok := deltaScan(img, lm, p, delta, done)
	if !ok {
		return 0, cancel.Err(ctx)
	}
	n := unionfind.Flatten(p, count)
	if !unionfind.Relabel(lm.L, p, w, done) {
		return 0, cancel.Err(ctx)
	}
	return int(n), nil
}

// deltaScan is LabelDelta's exhaustive Rosenfeld scan, polling done every
// cancel.PollRows rows. Returns the last label used and whether it completed.
func deltaScan(img *Image, lm *binimg.LabelMap, p []binimg.Label, delta uint8, done <-chan struct{}) (binimg.Label, bool) {
	w, h := img.Width, img.Height
	pix := img.Pix
	lab := lm.L
	var count binimg.Label
	near := func(a, b uint8) bool {
		if a > b {
			a, b = b, a
		}
		return b-a <= delta
	}
	for y := 0; y < h; y++ {
		if y%cancel.PollRows == 0 && cancel.Stopped(done) {
			return count, false
		}
		row := y * w
		up := row - w
		for x := 0; x < w; x++ {
			e := pix[row+x]
			var le binimg.Label
			take := func(idx int) {
				if !near(pix[idx], e) {
					return
				}
				if le == 0 {
					le = lab[idx]
				} else if lab[idx] != le {
					le = unionfind.MergeRemSP(p, le, lab[idx])
				}
			}
			if x > 0 {
				take(row + x - 1)
			}
			if y > 0 {
				if x > 0 {
					take(up + x - 1)
				}
				take(up + x)
				if x+1 < w {
					take(up + x + 1)
				}
			}
			if le == 0 {
				count++
				p[count] = count
				le = count
			}
			lab[row+x] = le
		}
	}
	return count, true
}

// FloodFill is the gray-level reference labeler (exact equality,
// 8-connectivity), used to verify Label and PLabel.
func FloodFill(img *Image) (*binimg.LabelMap, int) {
	w, h := img.Width, img.Height
	lm := binimg.NewLabelMap(w, h)
	lab := lm.L
	pix := img.Pix
	var next binimg.Label
	stack := make([]int32, 0, 1024)
	for s := range pix {
		if lab[s] != 0 {
			continue
		}
		next++
		lab[s] = next
		v := pix[s]
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			i := int(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			x, y := i%w, i/w
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny := x+dx, y+dy
					if nx < 0 || nx >= w || ny < 0 || ny >= h {
						continue
					}
					j := ny*w + nx
					if pix[j] == v && lab[j] == 0 {
						lab[j] = next
						stack = append(stack, int32(j))
					}
				}
			}
		}
	}
	return lm, int(next)
}
