package binimg

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	im := New(7, 3)
	if im.Width != 7 || im.Height != 3 {
		t.Fatalf("dimensions = %dx%d, want 7x3", im.Width, im.Height)
	}
	if len(im.Pix) != 21 {
		t.Fatalf("len(Pix) = %d, want 21", len(im.Pix))
	}
	for i, v := range im.Pix {
		if v != 0 {
			t.Fatalf("Pix[%d] = %d, want 0", i, v)
		}
	}
	if im.ForegroundCount() != 0 {
		t.Fatalf("ForegroundCount = %d, want 0", im.ForegroundCount())
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestNewZeroSized(t *testing.T) {
	for _, dims := range [][2]int{{0, 0}, {0, 5}, {5, 0}} {
		im := New(dims[0], dims[1])
		if len(im.Pix) != 0 {
			t.Errorf("New(%d,%d): len(Pix) = %d, want 0", dims[0], dims[1], len(im.Pix))
		}
		if im.Density() != 0 {
			t.Errorf("New(%d,%d): Density = %v, want 0", dims[0], dims[1], im.Density())
		}
	}
}

func TestFromPix(t *testing.T) {
	pix := []uint8{0, 1, 1, 0, 0, 1}
	im, err := FromPix(3, 2, pix)
	if err != nil {
		t.Fatal(err)
	}
	if im.At(1, 0) != 1 || im.At(0, 1) != 0 || im.At(2, 1) != 1 {
		t.Fatalf("unexpected pixels: %v", im.Pix)
	}
	// FromPix must not copy.
	pix[0] = 1
	if im.At(0, 0) != 1 {
		t.Fatal("FromPix copied the buffer; want zero-copy wrap")
	}
}

func TestFromPixErrors(t *testing.T) {
	if _, err := FromPix(3, 2, make([]uint8, 5)); err == nil {
		t.Error("short buffer accepted")
	}
	if _, err := FromPix(-1, 2, nil); err == nil {
		t.Error("negative width accepted")
	}
}

func TestValidate(t *testing.T) {
	im := New(4, 4)
	if err := im.Validate(); err != nil {
		t.Fatalf("fresh image invalid: %v", err)
	}
	im.Pix[5] = 7
	if err := im.Validate(); err == nil {
		t.Fatal("pixel value 7 passed validation")
	}
	im.Pix[5] = 1
	im.Pix = im.Pix[:15]
	if err := im.Validate(); err == nil {
		t.Fatal("truncated buffer passed validation")
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	im := New(5, 4)
	im.Set(2, 3, 1)
	im.Set(0, 0, 1)
	im.Set(4, 0, 1)
	if im.At(2, 3) != 1 || im.At(0, 0) != 1 || im.At(4, 0) != 1 {
		t.Fatal("Set/At round trip failed")
	}
	im.Set(2, 3, 0)
	if im.At(2, 3) != 0 {
		t.Fatal("clearing a pixel failed")
	}
	if got := im.ForegroundCount(); got != 2 {
		t.Fatalf("ForegroundCount = %d, want 2", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	im := New(3, 3)
	for _, pt := range [][2]int{{-1, 0}, {0, -1}, {3, 0}, {0, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", pt[0], pt[1])
				}
			}()
			im.At(pt[0], pt[1])
		}()
	}
}

func TestAtOr(t *testing.T) {
	im := New(2, 2)
	im.Set(1, 1, 1)
	if im.AtOr(1, 1, 0) != 1 {
		t.Error("AtOr in-bounds returned wrong value")
	}
	if im.AtOr(-1, 0, 0) != 0 {
		t.Error("AtOr(-1,0) should return default 0")
	}
	if im.AtOr(2, 5, 1) != 1 {
		t.Error("AtOr out-of-bounds should return given default")
	}
}

func TestSetPanicsOnBadValue(t *testing.T) {
	im := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Set(_, _, 2) did not panic")
		}
	}()
	im.Set(0, 0, 2)
}

func TestCloneIndependence(t *testing.T) {
	im := MustParse("##.\n.#.")
	cl := im.Clone()
	if !im.Equal(cl) {
		t.Fatal("clone differs from original")
	}
	cl.Set(2, 0, 1)
	if im.At(2, 0) != 0 {
		t.Fatal("mutating clone changed original")
	}
}

func TestFillAndInvert(t *testing.T) {
	im := New(4, 3)
	im.Fill(1)
	if im.ForegroundCount() != 12 {
		t.Fatalf("after Fill(1), count = %d, want 12", im.ForegroundCount())
	}
	im.Invert()
	if im.ForegroundCount() != 0 {
		t.Fatalf("after Invert, count = %d, want 0", im.ForegroundCount())
	}
	im.Set(1, 1, 1)
	im.Invert()
	if im.ForegroundCount() != 11 || im.At(1, 1) != 0 {
		t.Fatal("Invert did not flip selectively")
	}
}

func TestDensity(t *testing.T) {
	im := New(10, 10)
	for i := 0; i < 25; i++ {
		im.Pix[i*4] = 1
	}
	if d := im.Density(); d != 0.25 {
		t.Fatalf("Density = %v, want 0.25", d)
	}
}

func TestSubImage(t *testing.T) {
	im := MustParse(`
		####
		#..#
		#..#
		####`)
	sub := im.SubImage(1, 1, 2, 2)
	if sub.Width != 2 || sub.Height != 2 || sub.ForegroundCount() != 0 {
		t.Fatalf("interior SubImage wrong: %s", sub)
	}
	edge := im.SubImage(0, 0, 4, 1)
	if edge.ForegroundCount() != 4 {
		t.Fatalf("top-row SubImage wrong: %s", edge)
	}
}

func TestSubImagePanicsOutOfRange(t *testing.T) {
	im := New(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("SubImage out of range did not panic")
		}
	}()
	im.SubImage(2, 2, 3, 3)
}

func TestPad(t *testing.T) {
	im := MustParse("##\n##")
	p := im.Pad(2)
	if p.Width != 6 || p.Height != 6 {
		t.Fatalf("padded dimensions = %dx%d, want 6x6", p.Width, p.Height)
	}
	if p.ForegroundCount() != 4 {
		t.Fatalf("padded count = %d, want 4", p.ForegroundCount())
	}
	if p.At(2, 2) != 1 || p.At(3, 3) != 1 || p.At(1, 1) != 0 {
		t.Fatalf("padding misplaced content:\n%s", p)
	}
}

func TestTranspose(t *testing.T) {
	im := MustParse("#..\n##.")
	tr := im.Transpose()
	if tr.Width != 2 || tr.Height != 3 {
		t.Fatalf("transposed dims %dx%d, want 2x3", tr.Width, tr.Height)
	}
	want := MustParse("##\n.#\n..")
	if !tr.Equal(want) {
		t.Fatalf("Transpose:\n%s\nwant:\n%s", tr, want)
	}
	if !tr.Transpose().Equal(im) {
		t.Fatal("double transpose is not identity")
	}
}

func TestFlip(t *testing.T) {
	im := MustParse("#..\n.#.")
	if !im.FlipH().Equal(MustParse("..#\n.#.")) {
		t.Errorf("FlipH wrong:\n%s", im.FlipH())
	}
	if !im.FlipV().Equal(MustParse(".#.\n#..")) {
		t.Errorf("FlipV wrong:\n%s", im.FlipV())
	}
	if !im.FlipH().FlipH().Equal(im) {
		t.Error("double FlipH is not identity")
	}
	if !im.FlipV().FlipV().Equal(im) {
		t.Error("double FlipV is not identity")
	}
}

func TestFromGrayIm2bwSemantics(t *testing.T) {
	// im2bw(level): luminance > level*255 -> 1. At level 0.5 the threshold is
	// 127.5, so 127 -> 0 and 128 -> 1.
	gray := []uint8{0, 127, 128, 255}
	im, err := FromGray(4, 1, gray, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{0, 0, 1, 1}
	for i, w := range want {
		if im.Pix[i] != w {
			t.Errorf("Pix[%d] = %d, want %d (gray=%d)", i, im.Pix[i], w, gray[i])
		}
	}
}

func TestFromGrayLevelExtremes(t *testing.T) {
	gray := []uint8{0, 100, 255}
	im0, _ := FromGray(3, 1, gray, 0)
	if im0.ForegroundCount() != 2 { // only gray 0 stays background at level 0
		t.Errorf("level 0: count = %d, want 2", im0.ForegroundCount())
	}
	im1, _ := FromGray(3, 1, gray, 1)
	if im1.ForegroundCount() != 0 { // nothing exceeds 255
		t.Errorf("level 1: count = %d, want 0", im1.ForegroundCount())
	}
}

func TestFromGraySizeMismatch(t *testing.T) {
	if _, err := FromGray(2, 2, []uint8{1, 2, 3}, 0.5); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestParseAndString(t *testing.T) {
	art := "#.#\n.#.\n#.#"
	im := MustParse(art)
	if im.String() != art {
		t.Fatalf("round trip:\n%s\nwant:\n%s", im.String(), art)
	}
	if im.ForegroundCount() != 5 {
		t.Fatalf("count = %d, want 5", im.ForegroundCount())
	}
}

func TestParseAlternateRunes(t *testing.T) {
	a := MustParse("10\n01")
	b := MustParse("#.\n.#")
	if !a.Equal(b) {
		t.Fatal("'1'/'0' and '#'/'.' parse differently")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse("##\n#"); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := Parse("#x"); err == nil {
		t.Error("invalid rune accepted")
	}
}

func TestParseBlankLinesTrimmed(t *testing.T) {
	im := MustParse("\n\n##\n##\n\n")
	if im.Width != 2 || im.Height != 2 {
		t.Fatalf("dims = %dx%d, want 2x2", im.Width, im.Height)
	}
}

func TestParseEmpty(t *testing.T) {
	im := MustParse("")
	if im.Width != 0 || im.Height != 0 {
		t.Fatalf("empty parse gave %dx%d", im.Width, im.Height)
	}
}

func TestEqualMismatchedDims(t *testing.T) {
	if New(2, 3).Equal(New(3, 2)) {
		t.Fatal("images with different dims reported equal")
	}
}

// Property: Parse(im.String()) == im for random images.
func TestPropertyStringParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 1+rng.Intn(40), 1+rng.Intn(40)
		im := New(w, h)
		for i := range im.Pix {
			im.Pix[i] = uint8(rng.Intn(2))
		}
		back, err := Parse(im.String())
		return err == nil && back.Equal(im)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pad(n) keeps foreground count and density scales accordingly.
func TestPropertyPadPreservesForeground(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 1+rng.Intn(30), 1+rng.Intn(30)
		im := New(w, h)
		for i := range im.Pix {
			im.Pix[i] = uint8(rng.Intn(2))
		}
		n := rng.Intn(4)
		p := im.Pad(n)
		return p.ForegroundCount() == im.ForegroundCount() &&
			p.Width == w+2*n && p.Height == h+2*n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Transpose preserves foreground count; FlipH/FlipV are involutions.
func TestPropertyTransformInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 1+rng.Intn(30), 1+rng.Intn(30)
		im := New(w, h)
		for i := range im.Pix {
			im.Pix[i] = uint8(rng.Intn(2))
		}
		return im.Transpose().ForegroundCount() == im.ForegroundCount() &&
			im.FlipH().FlipH().Equal(im) &&
			im.FlipV().FlipV().Equal(im)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStringOnWideImage(t *testing.T) {
	im := New(3, 1)
	im.Set(1, 0, 1)
	if got := im.String(); got != ".#." {
		t.Fatalf("String = %q, want .#.", got)
	}
	if !strings.Contains(New(2, 2).String(), "\n") {
		t.Fatal("multi-row String missing newline")
	}
}

func TestSplitEven(t *testing.T) {
	for _, tc := range []struct {
		n, k, step int
		want       []int
	}{
		{n: 10, k: 1, step: 1, want: []int{0, 10}},
		{n: 10, k: 3, step: 1, want: []int{0, 4, 7, 10}},
		{n: 3, k: 5, step: 1, want: []int{0, 1, 2, 3, 3, 3}},
		{n: 0, k: 2, step: 1, want: []int{0, 0, 0}},
		{n: 9, k: 1, step: 2, want: []int{0, 9}},
		{n: 9, k: 2, step: 2, want: []int{0, 6, 9}},
		{n: 10, k: 3, step: 2, want: []int{0, 4, 8, 10}},
		{n: 11, k: 4, step: 2, want: []int{0, 4, 8, 10, 11}},
		{n: 3, k: 4, step: 2, want: []int{0, 2, 3, 3, 3}},
	} {
		got := SplitEven(tc.n, tc.k, tc.step)
		if !slices.Equal(got, tc.want) {
			t.Errorf("SplitEven(%d, %d, %d) = %v, want %v", tc.n, tc.k, tc.step, got, tc.want)
		}
	}
}
