// Package stats computes connected-component statistics from label maps and
// provides the labeling validators the test suite is built on: structural
// validation (is this a correct CCL result for this image?) and equivalence
// (do two labelings encode the same partition?).
package stats

import (
	"fmt"
	"sort"

	"repro/internal/binimg"
)

// Label aliases the repository-wide label type.
type Label = binimg.Label

// Component aggregates the per-component measurements downstream
// applications consume (the paper's motivating uses: inspection, target
// recognition, medical image analysis).
type Component struct {
	Label     Label
	Area      int // pixel count
	MinX      int // bounding box
	MinY      int
	MaxX      int // inclusive
	MaxY      int
	CentroidX float64
	CentroidY float64
}

// Width returns the bounding-box width of the component.
func (c Component) Width() int { return c.MaxX - c.MinX + 1 }

// Height returns the bounding-box height of the component.
func (c Component) Height() int { return c.MaxY - c.MinY + 1 }

// BBoxArea returns the bounding-box area.
func (c Component) BBoxArea() int { return c.Width() * c.Height() }

// Extent returns Area / BBoxArea, a standard compactness measure in (0, 1].
func (c Component) Extent() float64 { return float64(c.Area) / float64(c.BBoxArea()) }

// AreaHistogram buckets component areas: hist[k] counts components with
// 2^k <= area < 2^(k+1) (hist[0] counts area 1).
func AreaHistogram(comps []Component) []int {
	var hist []int
	for _, c := range comps {
		k := 0
		for a := c.Area; a > 1; a >>= 1 {
			k++
		}
		for len(hist) <= k {
			hist = append(hist, 0)
		}
		hist[k]++
	}
	return hist
}

// LargestComponent returns the component with the largest area, or a zero
// Component when there are none.
func LargestComponent(comps []Component) Component {
	var best Component
	for _, c := range comps {
		if c.Area > best.Area {
			best = c
		}
	}
	return best
}

// RelabelByArea renumbers a consecutive labeling in place so that label 1 is
// the largest component, label 2 the second largest, and so on (ties broken
// by the original label, i.e. raster order). Downstream tooling routinely
// wants "the k biggest objects"; after this pass they are labels 1..k.
func RelabelByArea(lm *binimg.LabelMap, n int) {
	if n == 0 {
		return
	}
	areas := make([]int, n+1)
	for _, v := range lm.L {
		if v != 0 {
			areas[v]++
		}
	}
	order := make([]Label, n)
	for i := range order {
		order[i] = Label(i + 1)
	}
	sort.SliceStable(order, func(i, j int) bool { return areas[order[i]] > areas[order[j]] })
	remap := make([]Label, n+1)
	for rank, old := range order {
		remap[old] = Label(rank + 1)
	}
	for i, v := range lm.L {
		if v != 0 {
			lm.L[i] = remap[v]
		}
	}
}

// Validate checks that lm is a structurally correct consecutive labeling of
// img under the given connectivity:
//
//  1. lm and img have identical shape;
//  2. background pixels are labeled 0 and foreground pixels non-zero;
//  3. labels present are exactly 1..n with n == claimed;
//  4. adjacent foreground pixels share a label (no split components);
//  5. every label induces one connected region (no fused components) —
//     verified against a flood fill of the masked image.
//
// Conditions 4 and 5 together mean lm is *the* correct partition.
func Validate(img *binimg.Image, lm *binimg.LabelMap, claimed int, conn8 bool) error {
	if img.Width != lm.Width || img.Height != lm.Height {
		return fmt.Errorf("stats: shape mismatch image %dx%d vs labels %dx%d",
			img.Width, img.Height, lm.Width, lm.Height)
	}
	present := make(map[Label]bool)
	for i, v := range img.Pix {
		switch {
		case v == 0 && lm.L[i] != 0:
			return fmt.Errorf("stats: background pixel %d labeled %d", i, lm.L[i])
		case v != 0 && lm.L[i] == 0:
			return fmt.Errorf("stats: foreground pixel %d unlabeled", i)
		case v != 0:
			present[lm.L[i]] = true
		}
	}
	if len(present) != claimed {
		return fmt.Errorf("stats: %d distinct labels, claimed %d", len(present), claimed)
	}
	for l := Label(1); l <= Label(claimed); l++ {
		if !present[l] {
			return fmt.Errorf("stats: labels not consecutive: %d missing", l)
		}
	}
	// Adjacent foreground pixels must agree.
	w, h := img.Width, img.Height
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			if img.Pix[i] == 0 {
				continue
			}
			check := func(nx, ny int) error {
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					return nil
				}
				j := ny*w + nx
				if img.Pix[j] != 0 && lm.L[j] != lm.L[i] {
					return fmt.Errorf("stats: adjacent pixels (%d,%d)=%d and (%d,%d)=%d differ",
						x, y, lm.L[i], nx, ny, lm.L[j])
				}
				return nil
			}
			if err := check(x+1, y); err != nil {
				return err
			}
			if err := check(x, y+1); err != nil {
				return err
			}
			if conn8 {
				if err := check(x+1, y+1); err != nil {
					return err
				}
				if err := check(x-1, y+1); err != nil {
					return err
				}
			}
		}
	}
	// No fused components: the number of connected components (computed
	// independently) must equal the number of labels.
	if got := countComponents(img, conn8); got != claimed {
		return fmt.Errorf("stats: image has %d components, labeling claims %d", got, claimed)
	}
	return nil
}

// countComponents is an independent flood-fill counter (duplicated from the
// baseline package deliberately: the validator must not share code with the
// algorithms it validates).
func countComponents(img *binimg.Image, conn8 bool) int {
	w, h := img.Width, img.Height
	seen := make([]bool, w*h)
	stack := make([]int, 0, 256)
	n := 0
	for s, v := range img.Pix {
		if v == 0 || seen[s] {
			continue
		}
		n++
		seen[s] = true
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y := i%w, i/w
			push := func(nx, ny int) {
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					return
				}
				j := ny*w + nx
				if img.Pix[j] != 0 && !seen[j] {
					seen[j] = true
					stack = append(stack, j)
				}
			}
			push(x-1, y)
			push(x+1, y)
			push(x, y-1)
			push(x, y+1)
			if conn8 {
				push(x-1, y-1)
				push(x+1, y-1)
				push(x-1, y+1)
				push(x+1, y+1)
			}
		}
	}
	return n
}

// Equivalent reports whether two label maps encode the same partition of the
// same foreground, i.e. there is a bijection between their label sets that
// maps one onto the other. Different algorithms may number components
// differently (scan order differs), so tests compare with this rather than
// raw equality.
func Equivalent(a, b *binimg.LabelMap) error {
	if a.Width != b.Width || a.Height != b.Height {
		return fmt.Errorf("stats: shape mismatch %dx%d vs %dx%d", a.Width, a.Height, b.Width, b.Height)
	}
	ab := make(map[Label]Label)
	ba := make(map[Label]Label)
	for i := range a.L {
		la, lb := a.L[i], b.L[i]
		if (la == 0) != (lb == 0) {
			return fmt.Errorf("stats: foreground mismatch at pixel %d: %d vs %d", i, la, lb)
		}
		if la == 0 {
			continue
		}
		if m, ok := ab[la]; ok && m != lb {
			return fmt.Errorf("stats: label %d maps to both %d and %d", la, m, lb)
		}
		ab[la] = lb
		if m, ok := ba[lb]; ok && m != la {
			return fmt.Errorf("stats: label %d mapped from both %d and %d", lb, m, la)
		}
		ba[lb] = la
	}
	return nil
}
