package stats_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/stats"
)

// pixelComponents is the per-pixel statistics oracle: it visits every
// pixel and updates its label's area, box and coordinate sums. The run fold
// in Components must match it exactly.
func pixelComponents(lm *binimg.LabelMap) []stats.Component {
	n := int(lm.Max())
	out := make([]stats.Component, n)
	for i := range out {
		out[i] = stats.Component{Label: stats.Label(i + 1), MinX: lm.Width, MinY: lm.Height, MaxX: -1, MaxY: -1}
	}
	sumX := make([]int64, n)
	sumY := make([]int64, n)
	for y := 0; y < lm.Height; y++ {
		for x := 0; x < lm.Width; x++ {
			v := lm.L[y*lm.Width+x]
			if v == 0 {
				continue
			}
			c := &out[v-1]
			c.Area++
			c.MinX, c.MaxX = min(c.MinX, x), max(c.MaxX, x)
			c.MinY, c.MaxY = min(c.MinY, y), max(c.MaxY, y)
			sumX[v-1] += int64(x)
			sumY[v-1] += int64(y)
		}
	}
	for i := range out {
		if out[i].Area > 0 {
			out[i].CentroidX = float64(sumX[i]) / float64(out[i].Area)
			out[i].CentroidY = float64(sumY[i]) / float64(out[i].Area)
		}
	}
	return out
}

// TestComponentsMatchesPixelOracle: the run fold over label-map rows must
// equal the per-pixel loop exactly — over the conformance corpus labeled in
// three numberings (flood fill's raster order, PAREMSP's and PBREMSP's
// chunk orders), over a label map whose labels leave gaps (empty
// components keep the oracle's inverted box), and over a gray labeling,
// where every pixel is foreground and adjacent runs change label.
func TestComponentsMatchesPixelOracle(t *testing.T) {
	check := func(name string, lm *binimg.LabelMap) {
		t.Helper()
		if got, want := stats.Components(lm), pixelComponents(lm); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: run fold %+v, pixel oracle %+v", name, got, want)
		}
	}
	for _, ci := range harness.Corpus() {
		ff, _ := baseline.FloodFill(ci.Image, baseline.Conn8)
		check(ci.Name+"/floodfill", ff)
		for name, alg := range map[string]func(context.Context, *binimg.Image, *binimg.LabelMap, *core.Scratch, core.Options) (int, core.PhaseTimes, error){
			"paremsp": core.PAREMSP, "pbremsp": core.PBREMSP,
		} {
			lm := &binimg.LabelMap{}
			if _, _, err := alg(context.Background(), ci.Image, lm, nil, core.Options{Threads: 3}); err != nil {
				t.Fatal(err)
			}
			check(ci.Name+"/"+name, lm)
		}
	}
	gaps := binimg.NewLabelMap(6, 3)
	copy(gaps.L, []binimg.Label{
		0, 2, 2, 0, 5, 5,
		0, 0, 2, 0, 0, 5,
		7, 0, 0, 0, 0, 0,
	})
	check("gaps", gaps)
	gray := binimg.NewLabelMap(5, 2)
	copy(gray.L, []binimg.Label{1, 1, 2, 3, 3, 4, 1, 2, 2, 3})
	check("gray", gray)
}
