package main

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"image"
	"image/png"
	"math"
	"net/http"
	"slices"

	paremsp "repro"
)

// refComp is one component of a reference labeling. Its statistics are
// exact integers (coordinate sums instead of centroids), so answers compare
// without a float tolerance.
type refComp struct {
	Area                   int64
	MinX, MinY, MaxX, MaxY int
	SumX, SumY             int64
	Runs                   int64 // maximal horizontal foreground runs
}

// reference is the expected labeling of one input: its components in
// canonical order (sortComps), which is independent of label numbering.
type reference struct {
	w, h  int
	fg    int64
	comps []refComp
}

// referenceOf labels bin with the flood-fill reference labeler and folds
// the label map into reference components with the benchmark's own code.
func referenceOf(w, h int, bin []byte) (*reference, error) {
	res, err := paremsp.Label(&paremsp.Image{Width: w, Height: h, Pix: bin},
		paremsp.Options{Algorithm: paremsp.AlgFloodFill})
	if err != nil {
		return nil, fmt.Errorf("reference labeling: %w", err)
	}
	comps, err := foldComps(res.Labels.L, w, h, res.NumComponents)
	if err != nil {
		return nil, err
	}
	ref := &reference{w: w, h: h, comps: comps}
	for _, c := range comps {
		ref.fg += c.Area
	}
	sortComps(ref.comps)
	return ref, nil
}

// foldComps computes per-label statistics of a label map with labels 1..n.
func foldComps(l []int32, w, h, n int) ([]refComp, error) {
	cs := make([]refComp, n)
	for i := range cs {
		cs[i] = refComp{MinX: w, MinY: h, MaxX: -1, MaxY: -1}
	}
	for y := 0; y < h; y++ {
		row := l[y*w : (y+1)*w]
		for x, v := range row {
			if v == 0 {
				continue
			}
			if v < 0 || int(v) > n {
				return nil, fmt.Errorf("reference labeling: label %d outside 1..%d", v, n)
			}
			c := &cs[v-1]
			c.Area++
			c.MinX, c.MaxX = min(c.MinX, x), max(c.MaxX, x)
			c.MinY, c.MaxY = min(c.MinY, y), max(c.MaxY, y)
			c.SumX += int64(x)
			c.SumY += int64(y)
			if x == 0 || row[x-1] == 0 {
				c.Runs++
			}
		}
	}
	return cs, nil
}

// sortComps puts components in canonical order.
func sortComps(cs []refComp) {
	slices.SortFunc(cs, func(a, b refComp) int {
		return cmp.Or(cmp.Compare(a.MinY, b.MinY), cmp.Compare(a.MinX, b.MinX),
			cmp.Compare(a.MaxY, b.MaxY), cmp.Compare(a.MaxX, b.MaxX),
			cmp.Compare(a.Area, b.Area), cmp.Compare(a.SumX, b.SumX),
			cmp.Compare(a.SumY, b.SumY), cmp.Compare(a.Runs, b.Runs))
	})
}

// check verifies one reply against the request's reference; nil means the
// answer is correct.
func check(rq request, code int, hdr http.Header, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", code, body)
	}
	want := kinds[rq.kind].accept
	if want == "" {
		want = ctJSON
	}
	if ct := hdr.Get("Content-Type"); ct != want {
		return fmt.Errorf("content type %q, want %q", ct, want)
	}
	switch rq.kind {
	case kLabelCCL:
		return checkCCL(rq.in, body)
	case kLabelPNG:
		return checkPNG(rq.in, body)
	default:
		return checkJSON(rq.kind, rq.in, body)
	}
}

// reply is the JSON body of /v1/label and /v1/stats.
type reply struct {
	Width         int     `json:"width"`
	Height        int     `json:"height"`
	NumComponents int     `json:"num_components"`
	Density       float64 `json:"density"`
	Components    []struct {
		Label    int32      `json:"label"`
		Area     int64      `json:"area"`
		BBox     [4]int     `json:"bbox"`
		Centroid [2]float64 `json:"centroid"`
		Runs     int64      `json:"runs"`
	} `json:"components"`
	Contours []struct {
		Label  int32    `json:"label"`
		Points [][2]int `json:"points"`
	} `json:"contours"`
}

// checkJSON checks a JSON reply: dimensions, count and density always; the
// component list (with run counts for /v1/stats) and the contours when the
// request shape returns them.
func checkJSON(k reqKind, in *input, body []byte) error {
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	ref := in.ref
	n := len(ref.comps)
	if r.Width != ref.w || r.Height != ref.h {
		return fmt.Errorf("size %dx%d, want %dx%d", r.Width, r.Height, ref.w, ref.h)
	}
	if r.NumComponents != n {
		return fmt.Errorf("num_components %d, want %d", r.NumComponents, n)
	}
	if want := float64(ref.fg) / float64(ref.w*ref.h); math.Abs(r.Density-want) > 1e-12 {
		return fmt.Errorf("density %v, want %v", r.Density, want)
	}
	got := make([]refComp, len(r.Components))
	labels := make([]int32, len(r.Components))
	for i, c := range r.Components {
		sx, sy := c.Centroid[0]*float64(c.Area), c.Centroid[1]*float64(c.Area)
		got[i] = refComp{Area: c.Area, MinX: c.BBox[0], MinY: c.BBox[1], MaxX: c.BBox[2], MaxY: c.BBox[3],
			SumX: int64(math.Round(sx)), SumY: int64(math.Round(sy)), Runs: c.Runs}
		if math.Abs(sx-math.Round(sx)) > 1e-3 || math.Abs(sy-math.Round(sy)) > 1e-3 {
			return fmt.Errorf("component %d: centroid %v is not a pixel-coordinate mean", c.Label, c.Centroid)
		}
		labels[i] = c.Label
	}
	if err := matchComps(got, labels, ref, k == kStats); err != nil {
		return err
	}
	if k != kLabelContours {
		if len(r.Contours) != 0 {
			return fmt.Errorf("%d unrequested contours", len(r.Contours))
		}
		return nil
	}
	boxes := make([]refComp, len(r.Contours))
	clabels := make([]int32, len(r.Contours))
	for i, c := range r.Contours {
		if len(c.Points) == 0 {
			return fmt.Errorf("contour %d is empty", c.Label)
		}
		b := refComp{MinX: in.w, MinY: in.h, MaxX: -1, MaxY: -1}
		for _, p := range c.Points {
			x, y := p[0], p[1]
			if x < 0 || y < 0 || x >= in.w || y >= in.h || in.bin[y*in.w+x] == 0 {
				return fmt.Errorf("contour %d: point (%d,%d) is not an object pixel", c.Label, x, y)
			}
			b.MinX, b.MaxX = min(b.MinX, x), max(b.MaxX, x)
			b.MinY, b.MaxY = min(b.MinY, y), max(b.MaxY, y)
		}
		boxes[i], clabels[i] = b, c.Label
	}
	// An outer boundary reaches all four sides of its component's bounding
	// box, so the contours' boxes must be the reference boxes.
	want := make([]refComp, n)
	for i, c := range ref.comps {
		want[i] = refComp{MinX: c.MinX, MinY: c.MinY, MaxX: c.MaxX, MaxY: c.MaxY}
	}
	sortComps(want)
	return matchSorted("contour", boxes, clabels, want)
}

// matchComps checks that the reply's components are the reference's, up to
// label numbering; run counts are compared only when withRuns is set.
func matchComps(got []refComp, labels []int32, ref *reference, withRuns bool) error {
	want := ref.comps
	if !withRuns {
		want = slices.Clone(ref.comps)
		for i := range want {
			want[i].Runs = 0
		}
		for i := range got {
			got[i].Runs = 0
		}
	}
	return matchSorted("component", got, labels, want)
}

// matchSorted checks that labels are a permutation of 1..len(want) and that
// got, sorted, equals want (already sorted).
func matchSorted(what string, got []refComp, labels []int32, want []refComp) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d %ss, want %d", len(got), what, len(want))
	}
	seen := make([]bool, len(want)+1)
	for _, l := range labels {
		if l < 1 || int(l) > len(want) || seen[l] {
			return fmt.Errorf("%s label %d is out of range or repeated", what, l)
		}
		seen[l] = true
	}
	sortComps(got)
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s %+v, want %+v", what, got[i], want[i])
		}
	}
	return nil
}

// checkCCL checks a CCL1 label stream: "CCL1", little-endian width, height
// and count, then one little-endian int32 label per pixel.
func checkCCL(in *input, body []byte) error {
	if len(body) < 16 || string(body[:4]) != "CCL1" {
		return fmt.Errorf("not a CCL1 stream")
	}
	w := int(binary.LittleEndian.Uint32(body[4:]))
	h := int(binary.LittleEndian.Uint32(body[8:]))
	n := int(binary.LittleEndian.Uint32(body[12:]))
	if w != in.w || h != in.h {
		return fmt.Errorf("CCL1 size %dx%d, want %dx%d", w, h, in.w, in.h)
	}
	if n != len(in.ref.comps) {
		return fmt.Errorf("CCL1 count %d, want %d", n, len(in.ref.comps))
	}
	if len(body) != 16+4*w*h {
		return fmt.Errorf("CCL1 body is %d bytes, want %d", len(body), 16+4*w*h)
	}
	vals := make([]int32, w*h)
	for i := range vals {
		vals[i] = int32(binary.LittleEndian.Uint32(body[16+4*i:]))
	}
	return checkRaster(in, vals, false)
}

// checkPNG checks a PNG label map.
func checkPNG(in *input, body []byte) error {
	im, err := png.Decode(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("decoding PNG: %w", err)
	}
	g, ok := im.(*image.Gray)
	if !ok {
		return fmt.Errorf("PNG is %T, want 8-bit gray", im)
	}
	if g.Rect.Dx() != in.w || g.Rect.Dy() != in.h {
		return fmt.Errorf("PNG size %dx%d, want %dx%d", g.Rect.Dx(), g.Rect.Dy(), in.w, in.h)
	}
	vals := make([]int32, in.w*in.h)
	for y := 0; y < in.h; y++ {
		for x, v := range g.Pix[y*g.Stride : y*g.Stride+in.w] {
			vals[y*in.w+x] = int32(v)
		}
	}
	return checkRaster(in, vals, true)
}

// checkPGM checks a raw PGM label map, as /v1/label returns for
// Accept: image/x-portable-graymap.
func checkPGM(in *input, body []byte) error {
	hdr := fmt.Sprintf("P5\n%d %d\n255\n", in.w, in.h)
	if !bytes.HasPrefix(body, []byte(hdr)) || len(body) != len(hdr)+in.w*in.h {
		return fmt.Errorf("PGM is not a %dx%d raw graymap", in.w, in.h)
	}
	vals := make([]int32, in.w*in.h)
	for i, v := range body[len(hdr):] {
		vals[i] = int32(v)
	}
	return checkRaster(in, vals, true)
}

// checkRaster checks that vals is label-map-equivalent to the reference:
// background exactly where the input has none, one value per reference
// component (8-neighbouring object pixels agree), and as many distinct
// values as components. palette rasters (PNG, PGM) show label l as
// 64+(l-1)%192, so there the distinct count is capped at 192; exact rasters
// (CCL1) must use labels 1..n, which with the count makes the value-to-
// component map one-to-one.
func checkRaster(in *input, vals []int32, palette bool) error {
	w, h, n := in.w, in.h, len(in.ref.comps)
	lo, hi, want := int32(1), int32(n), n
	if palette {
		lo, hi, want = 64, 255, min(n, 192)
	}
	seen := make([]bool, hi+1)
	distinct := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			v := vals[i]
			if in.bin[i] == 0 {
				if v != 0 {
					return fmt.Errorf("background pixel (%d,%d) has value %d", x, y, v)
				}
				continue
			}
			if v < lo || v > hi {
				return fmt.Errorf("object pixel (%d,%d) has value %d outside %d..%d", x, y, v, lo, hi)
			}
			if !seen[v] {
				seen[v] = true
				distinct++
			}
			// The four already-visited 8-neighbours; together with symmetry
			// these cover every adjacent pair once.
			for _, d := range [4][2]int{{-1, 0}, {-1, -1}, {0, -1}, {1, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || ny < 0 || nx >= w {
					continue
				}
				if j := ny*w + nx; in.bin[j] != 0 && vals[j] != v {
					return fmt.Errorf("component split: (%d,%d)=%d next to (%d,%d)=%d", x, y, v, nx, ny, vals[j])
				}
			}
		}
	}
	if distinct != want {
		return fmt.Errorf("%d distinct values, want %d", distinct, want)
	}
	return nil
}
