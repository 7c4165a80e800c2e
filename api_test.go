package paremsp_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	paremsp "repro"
)

func testImage(t *testing.T) *paremsp.Image {
	t.Helper()
	img, err := paremsp.ParseImage(`
		##..#
		##..#
		.....
		#.#.#`)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestLabelDefaultAlgorithm(t *testing.T) {
	img := testImage(t)
	res, err := paremsp.Label(img, paremsp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumComponents != 5 {
		t.Fatalf("NumComponents = %d, want 5", res.NumComponents)
	}
	if err := paremsp.Validate(img, res.Labels, res.NumComponents, true); err != nil {
		t.Fatal(err)
	}
}

func TestLabelEveryAlgorithmAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	img := paremsp.NewImage(57, 43)
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(2))
	}
	ref, err := paremsp.Label(img, paremsp.Options{Algorithm: paremsp.AlgFloodFill})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range paremsp.Algorithms() {
		res, err := paremsp.Label(img, paremsp.Options{Algorithm: alg, Threads: 6})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.NumComponents != ref.NumComponents {
			t.Fatalf("%s: %d components, reference %d", alg, res.NumComponents, ref.NumComponents)
		}
		if err := paremsp.Equivalent(res.Labels, ref.Labels); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
}

func TestLabelPAREMSPPhases(t *testing.T) {
	img := testImage(t)
	res, err := paremsp.Label(img, paremsp.Options{Algorithm: paremsp.AlgPAREMSP, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases.Total() <= 0 {
		t.Fatalf("phases not recorded: %+v", res.Phases)
	}
	if res.Phases.LocalMerge() != res.Phases.Scan+res.Phases.Merge {
		t.Fatalf("LocalMerge mismatch: %+v", res.Phases)
	}
}

func TestLabelCASMerger(t *testing.T) {
	img := testImage(t)
	a, err := paremsp.Label(img, paremsp.Options{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := paremsp.Label(img, paremsp.Options{Threads: 3, UseCASMerger: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := paremsp.Equivalent(a.Labels, b.Labels); err != nil {
		t.Fatal(err)
	}
}

func TestLabel4Connectivity(t *testing.T) {
	img, _ := paremsp.ParseImage("#.\n.#")
	res, err := paremsp.Label(img, paremsp.Options{Algorithm: paremsp.AlgFloodFill, Connectivity: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumComponents != 2 {
		t.Fatalf("4-conn components = %d, want 2", res.NumComponents)
	}
	res8, err := paremsp.Label(img, paremsp.Options{Algorithm: paremsp.AlgAREMSP})
	if err != nil {
		t.Fatal(err)
	}
	if res8.NumComponents != 1 {
		t.Fatalf("8-conn components = %d, want 1", res8.NumComponents)
	}
}

func TestLabelErrors(t *testing.T) {
	img := testImage(t)
	if _, err := paremsp.Label(nil, paremsp.Options{}); err == nil {
		t.Error("nil image accepted")
	}
	if _, err := paremsp.Label(img, paremsp.Options{Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := paremsp.Label(img, paremsp.Options{Connectivity: 6}); err == nil {
		t.Error("connectivity 6 accepted")
	}
	if _, err := paremsp.Label(img, paremsp.Options{Algorithm: paremsp.AlgAREMSP, Connectivity: 4}); err == nil {
		t.Error("AREMSP with 4-connectivity accepted")
	}
}

func TestAlgorithmsSortedAndComplete(t *testing.T) {
	algs := paremsp.Algorithms()
	if len(algs) != 12 {
		t.Fatalf("Algorithms() returned %d entries, want 12", len(algs))
	}
	for i := 1; i < len(algs); i++ {
		if algs[i-1] >= algs[i] {
			t.Fatalf("Algorithms() not sorted: %v", algs)
		}
	}
}

func TestCountComponents(t *testing.T) {
	img := testImage(t)
	if n := paremsp.CountComponents(img); n != 5 {
		t.Fatalf("CountComponents = %d, want 5", n)
	}
}

func TestComponentsOf(t *testing.T) {
	img := testImage(t)
	res, _ := paremsp.Label(img, paremsp.Options{Algorithm: paremsp.AlgAREMSP})
	comps := paremsp.ComponentsOf(res.Labels)
	if len(comps) != 5 {
		t.Fatalf("len = %d, want 5", len(comps))
	}
	total := 0
	for _, c := range comps {
		total += c.Area
	}
	if total != img.ForegroundCount() {
		t.Fatalf("areas sum to %d, want %d", total, img.ForegroundCount())
	}
}

func TestFromGray(t *testing.T) {
	img, err := paremsp.FromGray(2, 1, []uint8{10, 250}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if img.Pix[0] != 0 || img.Pix[1] != 1 {
		t.Fatalf("FromGray wrong: %v", img.Pix)
	}
}

func TestPNMRoundTripViaFacade(t *testing.T) {
	img := testImage(t)
	var buf bytes.Buffer
	if err := paremsp.EncodePBM(&buf, img, true); err != nil {
		t.Fatal(err)
	}
	back, err := paremsp.DecodePNM(&buf, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(img) {
		t.Fatal("facade PBM round trip failed")
	}
}

func TestEncodeLabelOutputs(t *testing.T) {
	img := testImage(t)
	res, _ := paremsp.Label(img, paremsp.Options{Algorithm: paremsp.AlgAREMSP})
	var pgm, png bytes.Buffer
	if err := paremsp.EncodeLabelsPGM(&pgm, res.Labels); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(pgm.String(), "P5\n") {
		t.Fatal("PGM output missing magic")
	}
	if err := paremsp.EncodeLabelsPNG(&png, res.Labels); err != nil {
		t.Fatal(err)
	}
	if png.Len() == 0 {
		t.Fatal("PNG output empty")
	}
	back, err := paremsp.DecodePNG(&png, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(img) {
		t.Fatal("PNG label mask does not reproduce the image")
	}
}

func TestLabelIntoMatchesLabel(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	img := paremsp.NewImage(64, 48)
	for i := range img.Pix {
		img.Pix[i] = uint8(rng.Intn(2))
	}
	dst := &paremsp.LabelMap{}
	sc := &paremsp.Scratch{}
	for _, alg := range paremsp.Algorithms() {
		want, err := paremsp.Label(img, paremsp.Options{Algorithm: alg, Threads: 3})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		got, err := paremsp.LabelInto(img, dst, sc, paremsp.Options{Algorithm: alg, Threads: 3})
		if err != nil {
			t.Fatalf("%s: LabelInto: %v", alg, err)
		}
		if got.Labels != dst {
			t.Fatalf("%s: LabelInto did not label into dst", alg)
		}
		if got.NumComponents != want.NumComponents {
			t.Fatalf("%s: LabelInto found %d components, Label found %d",
				alg, got.NumComponents, want.NumComponents)
		}
		if err := paremsp.Equivalent(got.Labels, want.Labels); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
}

func TestLabelIntoReusesBuffers(t *testing.T) {
	big := paremsp.NewImage(50, 40)
	small := paremsp.NewImage(20, 10)
	for _, im := range []*paremsp.Image{big, small} {
		for i := range im.Pix {
			im.Pix[i] = uint8((i / 3) % 2)
		}
	}
	dst := &paremsp.LabelMap{}
	sc := &paremsp.Scratch{}
	if _, err := paremsp.LabelInto(big, dst, sc, paremsp.Options{}); err != nil {
		t.Fatal(err)
	}
	bigBuf := &dst.L[0]
	res, err := paremsp.LabelInto(small, dst, sc, paremsp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if &dst.L[0] != bigBuf {
		t.Fatal("labeling a smaller image reallocated the label buffer")
	}
	if dst.Width != small.Width || dst.Height != small.Height {
		t.Fatalf("dst reshaped to %dx%d, want %dx%d", dst.Width, dst.Height, small.Width, small.Height)
	}
	if err := paremsp.Validate(small, res.Labels, res.NumComponents, true); err != nil {
		t.Fatal(err)
	}
}

func TestLabelBitmap(t *testing.T) {
	img := testImage(t)
	var buf bytes.Buffer
	if err := paremsp.EncodePBM(&buf, img, true); err != nil {
		t.Fatal(err)
	}
	bm, err := paremsp.DecodePBMBitmap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := paremsp.Label(img, paremsp.Options{Algorithm: paremsp.AlgAREMSP})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []paremsp.Algorithm{"", paremsp.AlgBREMSP, paremsp.AlgPBREMSP} {
		res, err := paremsp.LabelBitmap(bm, paremsp.Options{Algorithm: alg, Threads: 2})
		if err != nil {
			t.Fatalf("%q: %v", alg, err)
		}
		if res.NumComponents != ref.NumComponents {
			t.Fatalf("%q: %d components, want %d", alg, res.NumComponents, ref.NumComponents)
		}
		if err := paremsp.Equivalent(res.Labels, ref.Labels); err != nil {
			t.Fatalf("%q: %v", alg, err)
		}
	}
	if res, err := paremsp.LabelBitmap(bm, paremsp.Options{Algorithm: paremsp.AlgPBREMSP, Threads: 2}); err != nil {
		t.Fatal(err)
	} else if res.Phases.Total() <= 0 {
		t.Fatalf("PBREMSP phases not recorded: %+v", res.Phases)
	}
}

// TestDecodePBMBitmapRejectsNonP4: DecodePBMBitmap keeps its raw-PBM-only
// contract although the decoder under it reads every PNM format.
func TestDecodePBMBitmapRejectsNonP4(t *testing.T) {
	for _, src := range []string{"P1\n2 2\n1 0\n0 1\n", "P5\n2 2\n255\nabcd", "Px\n", "P4\n16 4\n\x01\x02"} {
		if _, err := paremsp.DecodePBMBitmap(strings.NewReader(src)); err == nil {
			t.Fatalf("accepted %q", src)
		}
	}
}

func TestLabelBitmapErrors(t *testing.T) {
	bm := paremsp.NewBitmap(4, 4)
	if _, err := paremsp.LabelBitmap(nil, paremsp.Options{}); err == nil {
		t.Error("nil bitmap accepted")
	}
	if _, err := paremsp.LabelBitmap(bm, paremsp.Options{Algorithm: paremsp.AlgClassic}); err == nil {
		t.Error("byte-raster algorithm accepted for a packed bitmap")
	}
	if _, err := paremsp.LabelBitmap(bm, paremsp.Options{Connectivity: 4}); err == nil {
		t.Error("4-connectivity accepted for bit-packed labeling")
	}
}

func TestLabelStream(t *testing.T) {
	img := testImage(t)
	var pbm bytes.Buffer
	if err := paremsp.EncodePBM(&pbm, img, true); err != nil {
		t.Fatal(err)
	}
	for _, bandRows := range []int{0, 1, 2} {
		res, err := paremsp.LabelStream(bytes.NewReader(pbm.Bytes()), paremsp.StreamOptions{BandRows: bandRows})
		if err != nil {
			t.Fatalf("band %d: %v", bandRows, err)
		}
		if res.Width != img.Width || res.Height != img.Height {
			t.Fatalf("band %d: shape %dx%d, want %dx%d", bandRows, res.Width, res.Height, img.Width, img.Height)
		}
		ref, err := paremsp.Label(img, paremsp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumComponents != ref.NumComponents {
			t.Fatalf("band %d: %d components, want %d", bandRows, res.NumComponents, ref.NumComponents)
		}
		var area int64
		for _, c := range res.Components {
			area += c.Area
		}
		if got := int64(img.ForegroundCount()); area != got || res.ForegroundPixels != got {
			t.Fatalf("band %d: area sum %d / foreground %d, want %d", bandRows, area, res.ForegroundPixels, got)
		}
	}
	var plain bytes.Buffer
	if err := paremsp.EncodePBM(&plain, img, false); err != nil {
		t.Fatal(err)
	}
	res, err := paremsp.LabelStream(&plain, paremsp.StreamOptions{})
	if err != nil || res.NumComponents != 5 || res.ForegroundPixels != int64(img.ForegroundCount()) {
		t.Fatalf("plain PBM: %+v, %v", res, err)
	}
	if _, err := paremsp.LabelStream(strings.NewReader("P6\n1 1\n255\n\x00"), paremsp.StreamOptions{}); err == nil {
		t.Error("PPM accepted by the band streamer")
	}
}
