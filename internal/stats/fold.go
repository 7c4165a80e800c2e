package stats

import "repro/internal/binimg"

// Acc accumulates one component's statistics run by run: area, the exact
// integer coordinate sums the centroid is derived from, the foreground run
// count, and the bounding box. It is the repository's one
// component-statistics fold: the out-of-core band labeler, the bit-packed
// labelers' label-map-free final pass and Components all feed horizontal
// runs through AddRun and combine partial accumulators with Fold, so every
// path reports bit-identical figures for the same component.
type Acc struct {
	Area, SumX, SumY, Runs int64
	MinX, MinY, MaxX, MaxY int32
}

// EmptyAcc returns an accumulator holding no pixels of a raster at most w
// wide and h tall: its bounding box starts inverted at (w, h)-(-1, -1), so
// the first run sets it.
func EmptyAcc(w, h int) Acc {
	return Acc{MinX: int32(w), MinY: int32(h), MaxX: -1, MaxY: -1}
}

// AddRun folds the foreground run [s, e) of row y into a.
func (a *Acc) AddRun(y, s, e int) {
	n := int64(e - s)
	a.Area += n
	a.SumX += n * int64(s+e-1) / 2 // sum of s..e-1; n*(s+e-1) is always even
	a.SumY += n * int64(y)
	a.Runs++
	if int32(s) < a.MinX {
		a.MinX = int32(s)
	}
	if int32(e-1) > a.MaxX {
		a.MaxX = int32(e - 1)
	}
	if int32(y) < a.MinY {
		a.MinY = int32(y)
	}
	if int32(y) > a.MaxY {
		a.MaxY = int32(y)
	}
}

// Fold merges b's pixels into a.
func (a *Acc) Fold(b *Acc) {
	a.Area += b.Area
	a.SumX += b.SumX
	a.SumY += b.SumY
	a.Runs += b.Runs
	a.MinX = min(a.MinX, b.MinX)
	a.MaxX = max(a.MaxX, b.MaxX)
	a.MinY = min(a.MinY, b.MinY)
	a.MaxY = max(a.MaxY, b.MaxY)
}

// Component renders the accumulator as the statistics of component label;
// the centroid is the mean pixel coordinate (zero for an empty
// accumulator).
func (a *Acc) Component(label Label) Component {
	c := Component{
		Label: label,
		Area:  int(a.Area),
		MinX:  int(a.MinX), MinY: int(a.MinY),
		MaxX: int(a.MaxX), MaxY: int(a.MaxY),
	}
	if a.Area > 0 {
		c.CentroidX = float64(a.SumX) / float64(a.Area)
		c.CentroidY = float64(a.SumY) / float64(a.Area)
	}
	return c
}

// FromAccs renders accs as the component list of a consecutive
// labeling: accs[i] is label i+1.
func FromAccs(accs []Acc) []Component {
	out := make([]Component, len(accs))
	for i := range accs {
		out[i] = accs[i].Component(Label(i + 1))
	}
	return out
}

// Components computes per-component statistics from a label map whose
// labels are consecutive 1..n (the postcondition of every labeler in this
// repository). The result is indexed by label-1. Each row is cut into
// maximal runs of one label and every run is folded into its label's
// accumulator, so the per-pixel work is one comparison.
func Components(lm *binimg.LabelMap) []Component {
	w, h := lm.Width, lm.Height
	var accs []Acc
	for y := 0; y < h; y++ {
		row := lm.L[y*w : (y+1)*w]
		for x := 0; x < w; {
			v := row[x]
			if v == 0 {
				x++
				continue
			}
			s := x
			for x++; x < w && row[x] == v; x++ {
			}
			for int(v) > len(accs) {
				accs = append(accs, EmptyAcc(w, h))
			}
			accs[v-1].AddRun(y, s, x)
		}
	}
	return FromAccs(accs)
}
