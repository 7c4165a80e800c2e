package stream_test

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/binimg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/pnm"
	"repro/internal/stats"
	"repro/internal/stream"
)

// inMemory labels img with a core entry point into a fresh label map — the
// in-memory reference the streaming labelers must agree with.
func inMemory(alg func(context.Context, *binimg.Image, *binimg.LabelMap, *core.Scratch, core.Options) (int, core.PhaseTimes, error),
	img *binimg.Image) (*binimg.LabelMap, int) {
	lm := &binimg.LabelMap{}
	n, _, _ := alg(context.Background(), img, lm, nil, core.Options{})
	return lm, n
}

// labelViaStream round-trips img through the PBM encoder, the streaming
// labeler (spilling to a real temp file), and the CCL1 decoder.
func labelViaStream(t *testing.T, img *binimg.Image) (*binimg.LabelMap, int) {
	t.Helper()
	var pbm bytes.Buffer
	if err := pnm.EncodePBM(&pbm, img, true); err != nil {
		t.Fatal(err)
	}
	spill, err := os.Create(filepath.Join(t.TempDir(), "spill"))
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	var out bytes.Buffer
	n, err := stream.LabelPBM(&pbm, spill, &out)
	if err != nil {
		t.Fatal(err)
	}
	lm, nHdr, err := stream.ReadLabels(&out)
	if err != nil {
		t.Fatal(err)
	}
	if n != nHdr {
		t.Fatalf("returned %d components, header says %d", n, nHdr)
	}
	return lm, n
}

func TestStreamMatchesInMemory(t *testing.T) {
	for name, img := range map[string]*binimg.Image{
		"blobs":      dataset.Blobs(130, 97, 14, 2, 8, 3),
		"noise":      dataset.UniformNoise(257, 129, 0.5, 4),
		"serpentine": dataset.Serpentine(101, 77, 2, 3),
		"full": func() *binimg.Image {
			im := binimg.New(64, 64)
			im.Fill(1)
			return im
		}(),
		"empty":     binimg.New(64, 64),
		"narrow":    dataset.UniformNoise(1, 300, 0.5, 5),
		"flat":      dataset.UniformNoise(300, 1, 0.5, 6),
		"odd-width": dataset.UniformNoise(63, 41, 0.4, 7), // exercises P4 row padding
	} {
		img := img
		t.Run(name, func(t *testing.T) {
			lm, n := labelViaStream(t, img)
			ref, nRef := inMemory(core.AREMSP, img)
			if n != nRef {
				t.Fatalf("streamed %d components, in-memory %d", n, nRef)
			}
			if err := stats.Equivalent(lm, ref); err != nil {
				t.Fatal(err)
			}
			if err := stats.Validate(img, lm, n, true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPropertyStreamMatchesInMemory(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 1+rng.Intn(50), 1+rng.Intn(50)
		img := binimg.New(w, h)
		for i := range img.Pix {
			img.Pix[i] = uint8(rng.Intn(2))
		}
		var pbm bytes.Buffer
		if err := pnm.EncodePBM(&pbm, img, true); err != nil {
			return false
		}
		spill, err := os.CreateTemp("", "spill")
		if err != nil {
			return false
		}
		defer os.Remove(spill.Name())
		defer spill.Close()
		var out bytes.Buffer
		n, err := stream.LabelPBM(&pbm, spill, &out)
		if err != nil {
			return false
		}
		lm, _, err := stream.ReadLabels(&out)
		if err != nil {
			return false
		}
		ref, nRef := inMemory(core.AREMSP, img)
		return n == nRef && stats.Equivalent(lm, ref) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamRejectsBadInput(t *testing.T) {
	spillDir := t.TempDir()
	newSpill := func() *os.File {
		f, err := os.CreateTemp(spillDir, "spill")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	cases := map[string]string{
		"plain pbm":   "P1\n2 2\n1 0 0 1\n",
		"pgm":         "P5\n2 2\n255\nabcd",
		"bad dim":     "P4\nxx 2\n",
		"huge dim":    "P4\n9999999 9999999\n",
		"truncated":   "P4\n16 4\n\x01\x02",
		"empty input": "",
	}
	for name, src := range cases {
		var out bytes.Buffer
		if _, err := stream.LabelPBM(strings.NewReader(src), newSpill(), &out); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadLabelsRejectsBadStreams(t *testing.T) {
	cases := map[string][]byte{
		"bad magic":        []byte("NOPE\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"),
		"truncated header": []byte("CCL1\x01\x00"),
		"truncated body": append([]byte("CCL1"),
			0x02, 0, 0, 0, 0x02, 0, 0, 0, 0x01, 0, 0, 0, // 2x2, 1 component
			0x01, 0, 0, 0), // only one label of four
	}
	for name, src := range cases {
		if _, _, err := stream.ReadLabels(bytes.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestStreamHeaderComments(t *testing.T) {
	img := dataset.UniformNoise(19, 11, 0.5, 9)
	var pbm bytes.Buffer
	if err := pnm.EncodePBM(&pbm, img, true); err != nil {
		t.Fatal(err)
	}
	// Inject a comment line into the header.
	raw := pbm.Bytes()
	withComment := append([]byte("P4\n# generated by test\n"), raw[3:]...)
	spill, err := os.CreateTemp(t.TempDir(), "spill")
	if err != nil {
		t.Fatal(err)
	}
	defer spill.Close()
	var out bytes.Buffer
	n, err := stream.LabelPBM(bytes.NewReader(withComment), spill, &out)
	if err != nil {
		t.Fatal(err)
	}
	_, nRef := inMemory(core.AREMSP, img)
	if n != nRef {
		t.Fatalf("commented header: %d components, want %d", n, nRef)
	}
}

func TestWriteLabelsRoundTrip(t *testing.T) {
	img := dataset.UniformNoise(61, 37, 0.4, 11)
	lm, n := inMemory(core.AREMSP, img)
	var buf bytes.Buffer
	if err := stream.WriteLabels(&buf, lm, n); err != nil {
		t.Fatal(err)
	}
	got, gotN, err := stream.ReadLabels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotN != n {
		t.Fatalf("round trip reports %d components, want %d", gotN, n)
	}
	if got.Width != lm.Width || got.Height != lm.Height {
		t.Fatalf("round trip dims %dx%d, want %dx%d", got.Width, got.Height, lm.Width, lm.Height)
	}
	for i, v := range lm.L {
		if got.L[i] != v {
			t.Fatalf("label[%d] = %d, want %d", i, got.L[i], v)
		}
	}
}
