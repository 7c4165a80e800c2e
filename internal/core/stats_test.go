package core_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/harness"
	"repro/internal/stats"
)

// statsFunc is the shape of the label-map-free entry points.
type statsFunc = func(context.Context, *binimg.Bitmap, *core.Scratch, core.Options, bool) (int, []stats.Component, core.PhaseTimes, error)

// TestStatsMatchesRasterFold is the differential check for the
// label-map-free final pass: over the conformance corpus, at 1, 2 and 7
// threads, folding runs under their final labels must report exactly what
// stats.Components reports over the same algorithm's label map — same
// count, same numbering, same areas, boxes and centroids.
func TestStatsMatchesRasterFold(t *testing.T) {
	type variant struct {
		name    string
		raster  func(context.Context, *binimg.Bitmap, *binimg.LabelMap, *core.Scratch, core.Options) (int, core.PhaseTimes, error)
		fold    statsFunc
		threads int
	}
	variants := []variant{{"BREMSP", core.BREMSPBitmap, core.BREMSPStats, 0}}
	for _, threads := range []int{1, 2, 7} {
		variants = append(variants, variant{fmt.Sprintf("PBREMSP/t%d", threads), core.PBREMSPBitmap, core.PBREMSPStats, threads})
	}
	sc := &core.Scratch{} // shared: reuse across shapes must not leak state
	for _, ci := range harness.Corpus() {
		bm := packed(ci.Image)
		for _, v := range variants {
			opt := core.Options{Threads: v.threads}
			lm := &binimg.LabelMap{}
			nRaster, _, err := v.raster(context.Background(), bm, lm, nil, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := stats.Components(lm)
			n, got, _, err := v.fold(context.Background(), bm, sc, opt, true)
			if err != nil {
				t.Fatal(err)
			}
			if n != nRaster || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: fold n=%d %+v, raster n=%d %+v", ci.Name, v.name, n, got, nRaster, want)
			}
			if n, got, _, _ := v.fold(context.Background(), bm, sc, opt, false); n != nRaster || got != nil {
				t.Fatalf("%s/%s count-only: n=%d comps=%v, want n=%d and no components", ci.Name, v.name, n, got, nRaster)
			}
		}
	}
}

// TestBitPackedRasterOrderNumbering pins the documented numbering of the
// bit-packed labelers: at one thread, components are numbered in raster
// order of their first pixel — exactly flood fill's numbering.
func TestBitPackedRasterOrderNumbering(t *testing.T) {
	for _, ci := range harness.Corpus() {
		want, _ := baseline.FloodFill(ci.Image, baseline.Conn8)
		for name, alg := range map[string]coreFunc{"BREMSP": core.BREMSP, "PBREMSP/t1": core.PBREMSP} {
			got, _ := label(alg, ci.Image, 1)
			if !slices.Equal(got.L, want.L) {
				t.Fatalf("%s/%s: labels differ from raster-order numbering", ci.Name, name)
			}
		}
	}
}

// TestStatsCancel: a dead context stops the label-map-free entry points
// with the context's error.
func TestStatsCancel(t *testing.T) {
	bm := packed(dataset.UniformNoise(128, 300, 0.5, 8))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, f := range map[string]statsFunc{"BREMSP": core.BREMSPStats, "PBREMSP": core.PBREMSPStats} {
		n, comps, _, err := f(ctx, bm, &core.Scratch{}, core.Options{Threads: 3}, true)
		if !errors.Is(err, context.Canceled) || n != 0 || comps != nil {
			t.Fatalf("%s: n=%d comps=%d err=%v, want 0, nil, context.Canceled", name, n, len(comps), err)
		}
	}
}

// packed returns img as a bitmap.
func packed(img *binimg.Image) *binimg.Bitmap {
	bm := &binimg.Bitmap{}
	bm.FromImage(img)
	return bm
}
