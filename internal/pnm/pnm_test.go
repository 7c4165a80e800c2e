package pnm_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"image"
	"image/color"
	"image/png"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/binimg"
	"repro/internal/dataset"
	"repro/internal/pnm"
)

func TestDecodeP1(t *testing.T) {
	src := "P1\n# a comment\n3 2\n1 0 1\n0 1 0\n"
	im, err := pnm.Decode(strings.NewReader(src), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := binimg.MustParse("#.#\n.#.")
	if !im.Equal(want) {
		t.Fatalf("decoded:\n%s\nwant:\n%s", im, want)
	}
}

func TestDecodeP1CompactDigits(t *testing.T) {
	// P1 allows unseparated digits? The strict grammar requires whitespace;
	// our reader requires separated tokens and must reject glued digits.
	src := "P1\n2 1\n10\n"
	if _, err := pnm.Decode(strings.NewReader(src), 0.5); err == nil {
		t.Fatal("glued P1 digits accepted")
	}
}

func TestDecodeP2Threshold(t *testing.T) {
	// maxval 255, level 0.5 -> threshold 127.5: 127 bg, 128 fg.
	src := "P2\n4 1\n255\n0 127 128 255\n"
	im, err := pnm.Decode(strings.NewReader(src), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint8{0, 0, 1, 1}
	for i, wv := range want {
		if im.Pix[i] != wv {
			t.Fatalf("pixel %d = %d, want %d", i, im.Pix[i], wv)
		}
	}
}

func TestDecodeP5SixteenBit(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("P5\n2 1\n65535\n")
	buf.Write([]byte{0x00, 0x00, 0xFF, 0xFF}) // 0 and 65535
	im, err := pnm.Decode(&buf, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if im.Pix[0] != 0 || im.Pix[1] != 1 {
		t.Fatalf("16-bit decode wrong: %v", im.Pix)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string]string{
		"bad magic":       "P7\n1 1\n0\n",
		"missing dims":    "P1\n3\n",
		"negative width":  "P1\n-1 2\n",
		"huge width":      "P1\n99999999 2\n",
		"bad pixel":       "P1\n1 1\n7\n",
		"bad maxval":      "P2\n1 1\n0\n5\n",
		"truncated P4":    "P4\n16 2\n\x00",
		"truncated P5":    "P5\n4 4\n255\nxy",
		"pgm value range": "P2\n1 1\n255\n300\n",
	}
	for name, src := range cases {
		if _, err := pnm.Decode(strings.NewReader(src), 0.5); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPBMRoundTripBothForms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 1+rng.Intn(40), 1+rng.Intn(40)
		im := binimg.New(w, h)
		for i := range im.Pix {
			im.Pix[i] = uint8(rng.Intn(2))
		}
		for _, raw := range []bool{false, true} {
			var buf bytes.Buffer
			if err := pnm.EncodePBM(&buf, im, raw); err != nil {
				return false
			}
			back, err := pnm.Decode(&buf, 0.5)
			if err != nil || !back.Equal(im) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestP4PacksRowPadding(t *testing.T) {
	// Width 9 needs 2 bytes per row; padding bits must be ignored.
	im := binimg.New(9, 2)
	im.Set(8, 0, 1)
	im.Set(0, 1, 1)
	var buf bytes.Buffer
	if err := pnm.EncodePBM(&buf, im, true); err != nil {
		t.Fatal(err)
	}
	// Header "P4\n9 2\n" + 4 data bytes.
	wantLen := len("P4\n9 2\n") + 4
	if buf.Len() != wantLen {
		t.Fatalf("P4 size = %d, want %d", buf.Len(), wantLen)
	}
	back, err := pnm.Decode(&buf, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(im) {
		t.Fatalf("round trip:\n%s\nwant:\n%s", back, im)
	}
}

func TestEncodePGMLabelPalette(t *testing.T) {
	lm := binimg.NewLabelMap(3, 1)
	lm.Set(1, 0, 1)
	lm.Set(2, 0, 500)
	var buf bytes.Buffer
	if err := pnm.EncodePGM(&buf, lm); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	pixels := data[len(data)-3:]
	if pixels[0] != 0 {
		t.Fatal("background must encode to 0")
	}
	if pixels[1] < 64 || pixels[2] < 64 {
		t.Fatal("labels must encode to >= 64")
	}
}

func TestDecodePNG(t *testing.T) {
	src := image.NewGray(image.Rect(0, 0, 3, 1))
	src.SetGray(0, 0, color.Gray{Y: 0})
	src.SetGray(1, 0, color.Gray{Y: 100})
	src.SetGray(2, 0, color.Gray{Y: 200})
	var buf bytes.Buffer
	if err := png.Encode(&buf, src); err != nil {
		t.Fatal(err)
	}
	im, err := pnm.DecodePNG(&buf, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if im.Pix[0] != 0 || im.Pix[1] != 0 || im.Pix[2] != 1 {
		t.Fatalf("png binarization wrong: %v", im.Pix)
	}
}

func TestDecodePNGColorUsesLuminance(t *testing.T) {
	src := image.NewRGBA(image.Rect(0, 0, 2, 1))
	src.Set(0, 0, color.RGBA{R: 255, A: 255})                 // dark-ish red
	src.Set(1, 0, color.RGBA{R: 255, G: 255, B: 255, A: 255}) // white
	var buf bytes.Buffer
	if err := png.Encode(&buf, src); err != nil {
		t.Fatal(err)
	}
	im, err := pnm.DecodePNG(&buf, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Rec. 601 luma of pure red is ~0.30 -> background at level 0.5.
	if im.Pix[0] != 0 || im.Pix[1] != 1 {
		t.Fatalf("luminance binarization wrong: %v", im.Pix)
	}
}

func TestEncodePNGRoundTripMask(t *testing.T) {
	img := dataset.Blobs(32, 24, 5, 2, 4, 7)
	lm := binimg.NewLabelMap(32, 24)
	for i, v := range img.Pix {
		if v != 0 {
			lm.L[i] = 1
		}
	}
	var buf bytes.Buffer
	if err := pnm.EncodePNG(&buf, lm); err != nil {
		t.Fatal(err)
	}
	back, err := pnm.DecodePNG(&buf, 0.1) // any label byte (>=64) exceeds 0.1*65535
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(img) {
		t.Fatal("png label mask round trip failed")
	}
}

func TestDecodeBadPNG(t *testing.T) {
	if _, err := pnm.DecodePNG(strings.NewReader("not a png"), 0.5); err == nil {
		t.Fatal("garbage accepted as png")
	}
}

// TestDecodePBMBitmapInto checks the packed-to-packed P4 decode against
// the source image across word-boundary widths, and that the full round
// trip (encode P4 -> bitmap decode -> encode P4) is byte-identical.
func TestDecodePBMBitmapInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bm := &binimg.Bitmap{} // reused across sizes: exercises Reset pooling
	for _, w := range []int{1, 7, 8, 9, 63, 64, 65, 100, 128, 129} {
		for _, h := range []int{1, 3, 17} {
			img := binimg.New(w, h)
			for i := range img.Pix {
				if rng.Intn(2) == 1 {
					img.Pix[i] = 1
				}
			}
			var buf bytes.Buffer
			if err := pnm.EncodePBM(&buf, img, true); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()

			if err := pnm.DecodeBitmapInto(bytes.NewReader(raw), 0.5, bm); err != nil {
				t.Fatalf("%dx%d: %v", w, h, err)
			}
			if got := bm.ToImage(); !got.Equal(img) {
				t.Fatalf("%dx%d: bitmap decode disagrees with source\ngot:\n%s\nwant:\n%s", w, h, got, img)
			}
			checkTailBits(t, bm)

			var back bytes.Buffer
			if err := pnm.EncodePBM(&back, bm.ToImage(), true); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back.Bytes(), raw) {
				t.Fatalf("%dx%d: P4 round trip through bitmap not byte-identical", w, h)
			}
		}
	}
}

// checkTailBits fails t if any padding bit past the last column of a row of
// bm is set.
func checkTailBits(t testing.TB, bm *binimg.Bitmap) {
	t.Helper()
	tail := bm.TailMask()
	for y := 0; y < bm.Height; y++ {
		if row := bm.Row(y); len(row) > 0 && row[len(row)-1]&^tail != 0 {
			t.Fatalf("%dx%d row %d: padding bits survived decode", bm.Width, bm.Height, y)
		}
	}
}

func TestDecodePBMBitmapIntoTruncated(t *testing.T) {
	if err := pnm.DecodeBitmapInto(strings.NewReader("P4\n16 4\n\x01\x02"), 0.5, &binimg.Bitmap{}); err == nil {
		t.Fatal("truncated P4 accepted")
	}
}

// threshold is the per-sample reference binarization: im2bw keeps samples
// whose fraction of maxVal is strictly greater than level.
func threshold(samples []int, w, h, maxVal int, level float64) *binimg.Image {
	want := binimg.New(w, h)
	for i, v := range samples {
		if float64(v) > level*float64(maxVal) {
			want.Pix[i] = 1
		}
	}
	return want
}

// TestDecodeBitmapIntoMatchesBytePath: the bitmap decoders and the byte
// decoders built on them agree with a per-sample reference in this file —
// the source bits for raw and plain PBM, float64(v) > level*maxVal for raw
// and plain PGM at 8 and 16 bits and for 16-bit gray PNG — at thresholds
// that land on, between and beyond sample values.
func TestDecodeBitmapIntoMatchesBytePath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bm := &binimg.Bitmap{} // reused across shapes
	levels := []float64{0, 0.25, 0.5, 0.999}
	for _, w := range []int{1, 63, 64, 65, 130} {
		for _, h := range []int{1, 9} {
			type body struct {
				data []byte
				want func(level float64) *binimg.Image
			}
			bodies := map[string]body{}
			img := binimg.New(w, h)
			for i := range img.Pix {
				img.Pix[i] = uint8(rng.Intn(2))
			}
			for _, raw := range []bool{true, false} {
				var buf bytes.Buffer
				if err := pnm.EncodePBM(&buf, img, raw); err != nil {
					t.Fatal(err)
				}
				bodies[fmt.Sprintf("PBM/raw=%v", raw)] = body{buf.Bytes(), func(float64) *binimg.Image { return img }}
			}
			for _, maxVal := range []int{255, 1000} {
				samples := make([]int, w*h)
				rawBody := []byte(fmt.Sprintf("P5\n%d %d\n%d\n", w, h, maxVal))
				plainBody := []byte(fmt.Sprintf("P2\n%d %d\n%d\n", w, h, maxVal))
				for i := range samples {
					v := rng.Intn(maxVal + 1)
					samples[i] = v
					if maxVal > 255 {
						rawBody = append(rawBody, byte(v>>8), byte(v))
					} else {
						rawBody = append(rawBody, byte(v))
					}
					plainBody = fmt.Appendf(plainBody, "%d\n", v)
				}
				want := func(level float64) *binimg.Image { return threshold(samples, w, h, maxVal, level) }
				bodies[fmt.Sprintf("P5/max%d", maxVal)] = body{rawBody, want}
				bodies[fmt.Sprintf("P2/max%d", maxVal)] = body{plainBody, want}
			}
			gray16 := image.NewGray16(image.Rect(0, 0, w, h))
			samples := make([]int, w*h)
			for i := range samples {
				samples[i] = rng.Intn(65536)
				gray16.SetGray16(i%w, i/w, color.Gray16{Y: uint16(samples[i])})
			}
			var pngBuf bytes.Buffer
			if err := png.Encode(&pngBuf, gray16); err != nil {
				t.Fatal(err)
			}
			bodies["PNG"] = body{pngBuf.Bytes(), func(level float64) *binimg.Image { return threshold(samples, w, h, 65535, level) }}

			for name, b := range bodies {
				decodeBits, decodeBytes := pnm.DecodeBitmapInto, pnm.DecodeInto
				if name == "PNG" {
					decodeBits, decodeBytes = pnm.DecodePNGBitmapInto, pnm.DecodePNGInto
				}
				for _, level := range levels {
					want := b.want(level)
					if err := decodeBits(bytes.NewReader(b.data), level, bm); err != nil {
						t.Fatalf("%s %dx%d: %v", name, w, h, err)
					}
					checkTailBits(t, bm)
					if got := bm.ToImage(); !got.Equal(want) {
						t.Fatalf("%s %dx%d level %v: bitmap decode disagrees with the reference", name, w, h, level)
					}
					got := &binimg.Image{}
					if err := decodeBytes(bytes.NewReader(b.data), level, got); err != nil || !got.Equal(want) {
						t.Fatalf("%s %dx%d level %v: byte decode disagrees with the reference (%v)", name, w, h, level, err)
					}
				}
			}
		}
	}
	if err := pnm.DecodeBitmapInto(strings.NewReader("P5\n7 0\n255\n"), 0.5, bm); err != nil || bm.Width != 7 || bm.Height != 0 {
		t.Fatalf("zero-height P5: %dx%d, %v", bm.Width, bm.Height, err)
	}
	for _, src := range []string{"P1\n1 1\n2\n", "P2\n2 1\n9\n3\n", "P5\n4 2\n255\nab", "P6\n1 1\n255\n\x00"} {
		if err := pnm.DecodeBitmapInto(strings.NewReader(src), 0.5, bm); err == nil {
			t.Fatalf("accepted %q", src)
		}
	}
}

// TestPeekHeader: the header is parsed without consuming the body, its
// payload is the smallest body that can carry the pixels, and a header
// that runs past the peek window cannot slip through.
func TestPeekHeader(t *testing.T) {
	cases := []struct {
		src  string
		want pnm.Header
		need int64
	}{
		{"P4\n1048576 1048576\n", pnm.Header{Magic: "P4", Width: 1 << 20, Height: 1 << 20}, 1 << 37},
		{"P4 # c\n9 2\n\xff\x80\xff\x80", pnm.Header{Magic: "P4", Width: 9, Height: 2}, 4},
		{"P5\n3 2\n255\nabcdef", pnm.Header{Magic: "P5", Width: 3, Height: 2, MaxVal: 255}, 6},
		{"P5\n3 2\n65535\n", pnm.Header{Magic: "P5", Width: 3, Height: 2, MaxVal: 65535}, 12},
		{"P1\n3 2\n", pnm.Header{Magic: "P1", Width: 3, Height: 2}, 6},
		{"P2\n3 2\n7\n", pnm.Header{Magic: "P2", Width: 3, Height: 2, MaxVal: 7}, 6},
	}
	for _, tc := range cases {
		br := bufio.NewReader(strings.NewReader(tc.src))
		got, err := pnm.PeekHeader(br)
		if err != nil || got != tc.want || got.PayloadBytes() != tc.need {
			t.Fatalf("%q: %+v (payload %d), %v; want %+v (payload %d)", tc.src, got, got.PayloadBytes(), err, tc.want, tc.need)
		}
		if br.Buffered() != len(tc.src) {
			t.Fatalf("%q: PeekHeader consumed the body", tc.src)
		}
	}
	hugePNG := string(pngHeaderOnly(1<<20, 1<<20))
	zeroPNG := string(pngHeaderOnly(0, 2))
	for _, src := range []string{"", "P6\n1 1\n255\n", "P4\n-1 2\n", "P5\n2 2\n0\n", "P4\n3",
		hugePNG[:20], strings.Replace(hugePNG, "IHDR", "IHDX", 1), zeroPNG} {
		if _, err := pnm.PeekHeader(bufio.NewReader(strings.NewReader(src))); err == nil {
			t.Fatalf("%q: malformed header accepted", src)
		}
	}
	if h, err := pnm.PeekHeader(bufio.NewReader(strings.NewReader(hugePNG))); err != nil ||
		h != (pnm.Header{Magic: "PNG", Width: 1 << 20, Height: 1 << 20}) || h.PayloadBytes() != 1<<37 {
		t.Fatalf("header-only PNG: %+v, %v", h, err)
	}
	// A PNG's dimensions sit at fixed offsets in its leading IHDR, so a
	// paletted PNG whose 5 KiB tEXt chunk pushes PLTE and IDAT past the
	// window still has a header, and decodes.
	pal := image.NewPaletted(image.Rect(0, 0, 9, 2), color.Palette{color.Black, color.White})
	pal.Pix[3], pal.Pix[10] = 1, 1
	var enc bytes.Buffer
	if err := png.Encode(&enc, pal); err != nil {
		t.Fatal(err)
	}
	long := withTextChunk(enc.Bytes(), 5<<10)
	if h, err := pnm.PeekHeader(bufio.NewReader(bytes.NewReader(long))); err != nil || h.Width != 9 || h.Height != 2 {
		t.Fatalf("paletted PNG with a long tEXt chunk: %+v, %v", h, err)
	}
	var bm binimg.Bitmap
	if err := pnm.DecodePNGBitmapInto(bytes.NewReader(long), 0.5, &bm); err != nil || bm.At(3, 0) != 1 || bm.At(1, 1) != 1 || bm.ForegroundCount() != 2 {
		t.Fatalf("paletted PNG with a long tEXt chunk decodes to %+v, %v", bm, err)
	}
	// Comments that push the dimensions past the 4096-byte window must
	// fail, whether the window ends before the last token or inside it: the
	// window takes in cut bytes of the height token "1048576\n"; at 8 it
	// all fits.
	for cut := 0; cut <= 8; cut++ {
		src := "P4\n#" + strings.Repeat("x", 4096-7-cut) + "\n5 " + "1048576\n" + "rows"
		h, err := pnm.PeekHeader(bufio.NewReader(strings.NewReader(src)))
		if fits := cut == 8; fits != (err == nil) || fits && h.Height != 1<<20 {
			t.Fatalf("window ends %d bytes into the height: %+v, %v", cut, h, err)
		}
	}
}

// withTextChunk splices an n-byte tEXt chunk (valid CRC) into the PNG p
// right after its IHDR, ahead of every other chunk.
func withTextChunk(p []byte, n int) []byte {
	typed := append([]byte("tEXtComment\x00"), bytes.Repeat([]byte("x"), n)...)
	chunk := binary.BigEndian.AppendUint32(nil, uint32(len(typed)-4))
	chunk = append(chunk, typed...)
	chunk = binary.BigEndian.AppendUint32(chunk, crc32.ChecksumIEEE(typed))
	const ihdrEnd = 8 + 4 + 4 + 13 + 4 // signature, length, type, data, CRC
	return slices.Concat(p[:ihdrEnd], chunk, p[ihdrEnd:])
}
