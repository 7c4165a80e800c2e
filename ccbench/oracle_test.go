package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"image"
	"image/png"
	"net/http"
	"slices"
	"testing"
	"time"

	paremsp "repro"
	"repro/internal/dataset"
)

// serve sends rq to a fresh in-process service and returns the reply.
func serve(t *testing.T, rq request) (int, http.Header, []byte) {
	t.Helper()
	svc, err := standUp()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	var rw respWriter
	rw.reset()
	svc.handler.ServeHTTP(&rw, newRequest(rq))
	return rw.code, rw.hdr.Clone(), bytes.Clone(rw.body.Bytes())
}

// testInput is a 96² Misc raster: blobs and glyphs, several components.
func testInput(t *testing.T) *input {
	t.Helper()
	im := dataset.Misc(96, 96, 7)
	in, err := binaryInput(0, im.Width, im.Height, im.Pix)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.ref.comps) < 3 {
		t.Fatalf("test input has %d components, want several", len(in.ref.comps))
	}
	return in
}

// editJSON decodes a JSON reply, applies edit and re-encodes it.
func editJSON(t *testing.T, body []byte, edit func(m map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func comp(m map[string]any, key string, i int) map[string]any {
	return m[key].([]any)[i].(map[string]any)
}

// TestOracleFlagsPlantedWrongAnswers checks a real reply of every request
// shape, then plants wrong answers in copies of it; the oracle must accept
// the first and reject every plant.
func TestOracleFlagsPlantedWrongAnswers(t *testing.T) {
	in := testInput(t)
	type plant struct {
		name  string
		apply func(body []byte) []byte
	}
	jsonPlants := []plant{
		{"area off by one", func(b []byte) []byte {
			return editJSON(t, b, func(m map[string]any) { c := comp(m, "components", 1); c["area"] = c["area"].(float64) + 1 })
		}},
		{"bbox moved", func(b []byte) []byte {
			return editJSON(t, b, func(m map[string]any) { comp(m, "components", 0)["bbox"].([]any)[2] = 95.0 })
		}},
		{"centroid shifted", func(b []byte) []byte {
			return editJSON(t, b, func(m map[string]any) {
				c := comp(m, "components", 2)
				c["centroid"].([]any)[0] = c["centroid"].([]any)[0].(float64) + 0.5
			})
		}},
		{"component dropped", func(b []byte) []byte {
			return editJSON(t, b, func(m map[string]any) { m["components"] = m["components"].([]any)[1:] })
		}},
		{"count off by one", func(b []byte) []byte {
			return editJSON(t, b, func(m map[string]any) { m["num_components"] = m["num_components"].(float64) + 1 })
		}},
		{"label repeated", func(b []byte) []byte {
			return editJSON(t, b, func(m map[string]any) { comp(m, "components", 1)["label"] = comp(m, "components", 0)["label"] })
		}},
		{"density wrong", func(b []byte) []byte {
			return editJSON(t, b, func(m map[string]any) { m["density"] = m["density"].(float64) * 1.01 })
		}},
	}
	cases := []struct {
		kind   reqKind
		plants []plant
	}{
		{kLabelComponents, jsonPlants},
		{kStats, append(slices.Clone(jsonPlants), plant{"runs wrong", func(b []byte) []byte {
			return editJSON(t, b, func(m map[string]any) { c := comp(m, "components", 0); c["runs"] = c["runs"].(float64) + 1 })
		}})},
		{kLabelContours, []plant{
			{"contour point on background", func(b []byte) []byte {
				return editJSON(t, b, func(m map[string]any) {
					i := firstPixel(in, 0)
					comp(m, "contours", 0)["points"].([]any)[0] = []any{float64(i % in.w), float64(i / in.w)}
				})
			}},
			{"contour dropped", func(b []byte) []byte {
				return editJSON(t, b, func(m map[string]any) { m["contours"] = m["contours"].([]any)[1:] })
			}},
		}},
		{kLabelCCL, []plant{
			{"background labelled", func(b []byte) []byte { return setCCL(b, firstPixel(in, 0), 1) }},
			{"component split", func(b []byte) []byte {
				i := firstPixel(in, 1)
				return setCCL(b, i, cclAt(b, i)%int32(len(in.ref.comps))+1)
			}},
			{"two components merged", func(b []byte) []byte {
				b = bytes.Clone(b)
				for i := 16; i < len(b); i += 4 {
					if binary.LittleEndian.Uint32(b[i:]) == 2 {
						binary.LittleEndian.PutUint32(b[i:], 1)
					}
				}
				return b
			}},
		}},
		{kLabelPNG, []plant{
			{"background labelled", func(b []byte) []byte { return editPNG(t, b, firstPixel(in, 0), 64) }},
			{"object pixel unlabelled", func(b []byte) []byte { return editPNG(t, b, firstPixel(in, 1), 0) }},
			{"component split", func(b []byte) []byte {
				i := firstPixel(in, 1)
				return editPNG(t, b, i, 64+(pngAt(t, b, i)-64+1)%192)
			}},
		}},
	}
	for _, tc := range cases {
		t.Run(kinds[tc.kind].name, func(t *testing.T) {
			rq := request{kind: tc.kind, in: in}
			code, hdr, body := serve(t, rq)
			if err := check(rq, code, hdr, body); err != nil {
				t.Fatalf("correct reply rejected: %v", err)
			}
			for _, p := range tc.plants {
				if err := check(rq, code, hdr, p.apply(body)); err == nil {
					t.Errorf("planted %q accepted", p.name)
				}
			}
			if err := check(rq, http.StatusTooManyRequests, hdr, body); err == nil {
				t.Error("a 429 was accepted")
			}
		})
	}
}

// TestOracleChecksPGM checks the palette oracle on a PGM label map.
func TestOracleChecksPGM(t *testing.T) {
	in := testInput(t)
	res, err := paremsp.Label(&paremsp.Image{Width: in.w, Height: in.h, Pix: in.bin}, paremsp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := paremsp.EncodeLabelsPGM(&buf, res.Labels); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	if err := checkPGM(in, body); err != nil {
		t.Fatalf("correct PGM rejected: %v", err)
	}
	hdr := len(body) - in.w*in.h
	bad := bytes.Clone(body)
	bad[hdr+firstPixel(in, 0)] = 64
	if checkPGM(in, bad) == nil {
		t.Error("PGM with a labelled background pixel accepted")
	}
}

// TestLoopCountsWrongAnswers runs the closed loop against a handler that
// corrupts every third reply and expects those counted as failed.
func TestLoopCountsWrongAnswers(t *testing.T) {
	in := testInput(t)
	svc, err := standUp()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	n := 0
	corrupt := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var rw respWriter
		rw.reset()
		svc.handler.ServeHTTP(&rw, r)
		for k, v := range rw.hdr {
			w.Header()[k] = v
		}
		body := rw.body.Bytes()
		if n++; n%3 == 0 {
			body = bytes.Replace(body, []byte(`"area":`), []byte(`"area":1`), 1)
		}
		w.WriteHeader(rw.code)
		w.Write(body)
	})
	wl := &workload{name: "test", clients: 1, gen: func(seq int) request {
		return request{seq: seq, kind: kLabelComponents, in: in}
	}}
	res := closedLoop(corrupt, wl, 200*time.Millisecond, 0, nil)
	if res.attempted < 3 || res.failed != res.attempted/3 || res.firstErr == nil {
		t.Fatalf("attempted %d, failed %d (err %v); want every third failed", res.attempted, res.failed, res.firstErr)
	}
}

// TestMosaicReferenceMatchesFloodFill checks the small-mix shortcut: a
// mosaic's reference assembled from its tiles equals the flood-fill
// reference of the whole mosaic.
func TestMosaicReferenceMatchesFloodFill(t *testing.T) {
	wl, err := smallMix(3)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 12; seq++ {
		in := wl.gen(seq).in
		want, err := referenceOf(in.w, in.h, in.bin)
		if err != nil {
			t.Fatal(err)
		}
		if want.fg != in.ref.fg || !slices.Equal(want.comps, in.ref.comps) {
			t.Fatalf("seq %d: mosaic reference (%d comps, fg %d) differs from flood fill (%d comps, fg %d)",
				seq, len(in.ref.comps), in.ref.fg, len(want.comps), want.fg)
		}
	}
}

// firstPixel returns the index of the first pixel whose binarized value is v.
func firstPixel(in *input, v byte) int {
	return bytes.IndexByte(in.bin, v)
}

func cclAt(b []byte, i int) int32 { return int32(binary.LittleEndian.Uint32(b[16+4*i:])) }

func setCCL(b []byte, i int, v int32) []byte {
	b = bytes.Clone(b)
	binary.LittleEndian.PutUint32(b[16+4*i:], uint32(v))
	return b
}

// pngAt returns pixel i of a gray PNG.
func pngAt(t *testing.T, b []byte, i int) uint8 {
	t.Helper()
	im, err := png.Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	g := im.(*image.Gray)
	return g.Pix[i/g.Rect.Dx()*g.Stride+i%g.Rect.Dx()]
}

// editPNG sets pixel i of a gray PNG to v.
func editPNG(t *testing.T, b []byte, i int, v uint8) []byte {
	t.Helper()
	im, err := png.Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	g := im.(*image.Gray)
	g.Pix[i/g.Rect.Dx()*g.Stride+i%g.Rect.Dx()] = v
	var out bytes.Buffer
	if err := png.Encode(&out, g); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}
