package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

func TestPAREMSP2DFixtures(t *testing.T) {
	for name, art := range fixtures {
		img := binimg.MustParse(art)
		for _, grid := range [][2]int{{1, 1}, {2, 2}, {3, 2}, {4, 4}} {
			lm, n := core.PAREMSP2D(img, grid[0], grid[1], 4)
			t.Run(name, func(t *testing.T) { checkAgainstReference(t, img, lm, n) })
		}
	}
}

func TestPropertyPAREMSP2DMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		img := randomImage(rng, 60, 60)
		ref, nRef := label(core.AREMSP, img, 0)
		lm, n := core.PAREMSP2D(img, 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(8))
		return n == nRef && stats.Equivalent(lm, ref) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPAREMSP2DGridSweep(t *testing.T) {
	img := dataset.UniformNoise(97, 61, 0.5, 5)
	ref, nRef := label(core.AREMSP, img, 0)
	for tilesX := 1; tilesX <= 7; tilesX++ {
		for tilesY := 1; tilesY <= 7; tilesY++ {
			lm, n := core.PAREMSP2D(img, tilesX, tilesY, 6)
			if n != nRef {
				t.Fatalf("grid %dx%d: n=%d want %d", tilesX, tilesY, n, nRef)
			}
			if err := stats.Equivalent(lm, ref); err != nil {
				t.Fatalf("grid %dx%d: %v", tilesX, tilesY, err)
			}
		}
	}
}

func TestPAREMSP2DDegenerate(t *testing.T) {
	// Grids exceeding the image must clamp; zero-sized images return 0.
	img := binimg.MustParse("##\n##")
	lm, n := core.PAREMSP2D(img, 50, 50, 8)
	checkAgainstReference(t, img, lm, n)
	if _, n := core.PAREMSP2D(binimg.New(0, 0), 2, 2, 2); n != 0 {
		t.Fatal("0x0 image must have 0 components")
	}
	wide := dataset.UniformNoise(300, 2, 0.5, 1)
	ref, nRef := label(core.AREMSP, wide, 0)
	lm, n = core.PAREMSP2D(wide, 8, 8, 8) // tilesY clamps to 1 pair
	if n != nRef {
		t.Fatalf("wide image: n=%d want %d", n, nRef)
	}
	if err := stats.Equivalent(lm, ref); err != nil {
		t.Fatal(err)
	}
}

// TestPAREMSP2DSeamHeavy stresses seams: vertical and horizontal stripes
// crossing every tile boundary.
func TestPAREMSP2DSeamHeavy(t *testing.T) {
	for _, vertical := range []bool{false, true} {
		img := dataset.Stripes(96, 96, 1, 1, vertical)
		ref, nRef := label(core.AREMSP, img, 0)
		lm, n := core.PAREMSP2D(img, 5, 5, 8)
		if n != nRef {
			t.Fatalf("stripes vertical=%v: n=%d want %d", vertical, n, nRef)
		}
		if err := stats.Equivalent(lm, ref); err != nil {
			t.Fatal(err)
		}
	}
}
