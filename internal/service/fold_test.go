package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"image"
	"image/color"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"slices"
	"testing"
	"time"

	paremsp "repro"
	"repro/internal/dataset"
	"repro/internal/harness"
	"repro/internal/jobs"
)

// phaseValues matches the phase timings, the one part of a JSON answer two
// runs of the same labeling do not share.
var phaseValues = regexp.MustCompile(`"(scan|merge|flatten|relabel)_ns":\d+`)

// rasterPathBody renders the raster path's JSON answer: the algorithm's
// label map, then ComponentsOf over it, through the handler's writer.
func rasterPathBody(t *testing.T, img *paremsp.Image, opt paremsp.Options, comps bool) []byte {
	t.Helper()
	bm := paremsp.NewBitmap(img.Width, img.Height)
	bm.FromImage(img)
	res, err := paremsp.LabelBitmap(bm, opt)
	if err != nil {
		t.Fatal(err)
	}
	var cs []paremsp.Component
	if comps {
		cs = paremsp.ComponentsOf(res.Labels)
	}
	rec := httptest.NewRecorder()
	writeLabeling(rec, ctJSON, img.Width, img.Height, img.Density(), res.Labels, res.NumComponents, res.Phases, cs, nil)
	return rec.Body.Bytes()
}

// TestLabelJSONMatchesRasterPath is the differential check for the
// label-map-free JSON answer: over the conformance corpus (densities
// 1-99%, non-word widths, empty and full images, 1xN and Nx1), for both
// bit-packed algorithms and 1, 2 and 7 threads, with and without
// components, the body must equal the raster path's byte for byte apart
// from the phase timings.
func TestLabelJSONMatchesRasterPath(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1}, HandlerConfig{})
	for _, ci := range harness.Corpus() {
		body := pbmBody(t, ci.Image)
		for _, alg := range []paremsp.Algorithm{paremsp.AlgPBREMSP, paremsp.AlgBREMSP} {
			for _, threads := range []int{1, 2, 7} {
				for _, comps := range []bool{true, false} {
					url := fmt.Sprintf("%s/v1/label?alg=%s&threads=%d&components=%t", srv.URL, alg, threads, comps)
					resp := post(t, url, ctPBM, ctJSON, body)
					got, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s %s: status %d: %s", ci.Name, url, resp.StatusCode, got)
					}
					want := rasterPathBody(t, ci.Image, paremsp.Options{Algorithm: alg, Threads: threads}, comps)
					if g, w := phaseValues.ReplaceAll(got, nil), phaseValues.ReplaceAll(want, nil); !bytes.Equal(g, w) {
						t.Fatalf("%s %s:\n got %s\nwant %s", ci.Name, url, got, want)
					}
				}
			}
		}
	}
}

// TestLabelComponentsMatchStats: /v1/label (default algorithm, run fold)
// and /v1/stats (band labeler) report the same components for the same P4
// body — label, area, bounding box and centroid.
func TestLabelComponentsMatchStats(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1}, HandlerConfig{})
	body := pbmBody(t, dataset.LandCover(300, 200, 16, 0.5, 4))
	var label labelResponse
	var stats statsResponse
	for _, c := range []struct {
		path string
		out  any
	}{{"/v1/label?threads=1", &label}, {"/v1/stats", &stats}} {
		resp := post(t, srv.URL+c.path, ctPBM, ctJSON, body)
		if err := json.NewDecoder(resp.Body).Decode(c.out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", c.path, resp.StatusCode, err)
		}
		resp.Body.Close()
	}
	if label.NumComponents != stats.NumComponents || len(label.Components) != len(stats.Components) || label.NumComponents < 10 {
		t.Fatalf("label found %d components (%d listed), stats %d (%d listed)",
			label.NumComponents, len(label.Components), stats.NumComponents, len(stats.Components))
	}
	for i, lc := range label.Components {
		sc := stats.Components[i]
		if lc.Label != sc.Label || lc.Area != sc.Area || lc.BBox != sc.BBox || lc.Centroid != sc.Centroid {
			t.Fatalf("component %d: label %+v, stats %+v", i, lc, sc)
		}
	}
}

// TestLabelJSONSkipsLabelMap: a default JSON answer decodes straight into
// a bitmap and takes no label map from the pool; a pinned byte algorithm
// still takes the raster path.
func TestLabelJSONSkipsLabelMap(t *testing.T) {
	eng, srv := newTestServer(t, Config{Workers: 1}, HandlerConfig{})
	body := pbmBody(t, testImage(t))
	resp := post(t, srv.URL+"/v1/label", ctPBM, ctJSON, body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if lm, img, bm := eng.metrics.poolGets[poolLabelMap].Load(), eng.metrics.poolGets[poolImage].Load(),
		eng.metrics.poolGets[poolBitmap].Load(); lm != 0 || img != 0 || bm != 1 {
		t.Fatalf("default JSON request: labelmap gets %d, image gets %d, bitmap gets %d; want 0, 0, 1", lm, img, bm)
	}
	resp = post(t, srv.URL+"/v1/label?alg=paremsp", ctPBM, ctJSON, body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if lm := eng.metrics.poolGets[poolLabelMap].Load(); lm != 1 {
		t.Fatalf("alg=paremsp request: labelmap gets %d, want 1", lm)
	}
}

// TestLabelBitmapStatsCanceled: a dead context fails the label-map-free
// engine path with context.Canceled.
func TestLabelBitmapStatsCanceled(t *testing.T) {
	eng := NewEngine(Config{Workers: 1})
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bm := paremsp.NewBitmap(64, 64)
	if err := eng.do(ctx, eng.bitmapStatsTask(bm, paremsp.Options{}, true)).err; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDefaultAlgorithmBinaryOnly: a configured default algorithm (ccserve
// -alg) applies to binary requests only; gray and volume requests without
// ?alg= keep their own default instead of failing with 400.
func TestDefaultAlgorithmBinaryOnly(t *testing.T) {
	_, store, _ := newJobsServer(t, Config{Workers: 1}, jobs.Options{})
	eng := NewEngine(Config{Workers: 1})
	srv := httptest.NewServer(NewHandler(eng, HandlerConfig{DefaultAlgorithm: paremsp.AlgBREMSP, Jobs: store}))
	t.Cleanup(func() { srv.Close(); eng.Close() })

	gray, _ := grayBody(t, 16, 12, 1)
	vol, _ := volumeBody(t, 8, 8, 3, 2)
	for _, c := range []struct{ path, ct string }{
		{"/v1/label?mode=gray", ctPGM},
		{"/v1/label?mode=gray-delta&delta=4", ctPGM},
		{"/v1/volume", ctPGM},
		{"/v1/label", ctPBM},
	} {
		b := gray
		switch {
		case c.path == "/v1/volume":
			b = vol
		case c.ct == ctPBM:
			b = pbmBody(t, testImage(t))
		}
		resp := post(t, srv.URL+c.path, c.ct, ctJSON, b)
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.path, resp.StatusCode, out)
		}
	}
	for _, kind := range []string{"gray", "volume"} {
		b := gray
		if kind == "volume" {
			b = vol
		}
		j := submitJobs(t, srv.URL+"/v1/jobs?kind="+kind, ctPGM, b).Jobs[0]
		waitJobDone(t, srv.URL, j.ID)
	}
}

// TestJobKeyPredictsDefaultID: with no ?alg= the service keys binary jobs
// under the bit-packed default and gray jobs under PAREMSP, and the public
// key functions predict both IDs from an empty algorithm.
func TestJobKeyPredictsDefaultID(t *testing.T) {
	_, _, srv := newJobsServer(t, Config{Workers: 1}, jobs.Options{})
	p4 := pbmBody(t, testImage(t))
	if got, want := submitJobs(t, srv.URL+"/v1/jobs", ctPBM, p4).Jobs[0].ID, paremsp.JobKey(paremsp.JobLabels, "", 0, 0.5, p4); got != want {
		t.Fatalf("labels job ID %s, JobKey predicts %s", got, want)
	}
	if want := jobs.Key(jobs.KindLabels, "pbremsp", 8, 0, p4); paremsp.JobKey(paremsp.JobLabels, "", 0, 0.5, p4) != want {
		t.Fatal("JobKey does not normalize an empty binary algorithm to pbremsp")
	}
	gray, _ := grayBody(t, 8, 8, 3)
	got := submitJobs(t, srv.URL+"/v1/jobs?kind=gray", ctPGM, gray).Jobs[0].ID
	if want := paremsp.JobKeyMode(paremsp.JobGray, paremsp.ModeGray, "", 0, 0.5, 0, gray); got != want {
		t.Fatalf("gray job ID %s, JobKeyMode predicts %s", got, want)
	}
	if want := jobs.Key(jobs.KindGray, "paremsp", 8, 0, gray); got != want {
		t.Fatal("gray job key changed")
	}
}

// TestPNMHeaderOverBudget413: an image header declaring more pixels than
// the body cap can carry answers 413 before any raster is allocated, on
// every endpoint — the default bit-packed path, the byte path, /v1/stats
// and /v1/volume (its first frame) alike; the 19-byte 1048576² body would
// otherwise ask for 128 GiB. A PNG is held to the pixels of a P4 body at
// the cap (its IHDR is read before png.Decode). Under the cap, a PNM header
// needing more bytes than the body declares is a truncated body: 400, again
// before allocating.
func TestPNMHeaderOverBudget413(t *testing.T) {
	_, capped := newTestServer(t, Config{Workers: 1}, HandlerConfig{MaxImageBytes: 16 << 20})
	_, dflt := newTestServer(t, Config{Workers: 1}, HandlerConfig{})
	for _, srv := range []*httptest.Server{capped, dflt} {
		post(t, srv.URL+"/v1/label", ctPBM, ctJSON, pbmBody(t, testImage(t))).Body.Close() // warm the client
	}
	hugePNG := string(pngHeaderOnly(1<<20, 1<<20))
	cases := []struct {
		srv            *httptest.Server
		path, body, ct string
		status         int
	}{
		{capped, "/v1/label", "P4\n1048576 1048576\n", ctPBM, http.StatusRequestEntityTooLarge},
		{capped, "/v1/label", "P4\n20000 20000\n", ctPBM, http.StatusRequestEntityTooLarge},
		{capped, "/v1/label?alg=paremsp", "P4\n1048576 1048576\n", ctPBM, http.StatusRequestEntityTooLarge},
		{capped, "/v1/label?alg=paremsp", "P4\n20000 20000\n", ctPBM, http.StatusRequestEntityTooLarge},
		{capped, "/v1/label", "P5\n20000 20000\n255\n", ctPGM, http.StatusRequestEntityTooLarge},
		{capped, "/v1/label?alg=paremsp", "P1\n20000 20000\n", ctPBM, http.StatusRequestEntityTooLarge},
		{capped, "/v1/label?mode=gray", "P5\n5000 5000\n65535\n", ctPGM, http.StatusRequestEntityTooLarge},
		{capped, "/v1/label", hugePNG, ctPNG, http.StatusRequestEntityTooLarge},
		{capped, "/v1/stats", "P4\n1048576 1048576\n", ctPBM, http.StatusRequestEntityTooLarge},
		{capped, "/v1/volume", "P5\n20000 20000\n255\n", ctPGM, http.StatusRequestEntityTooLarge},
		{dflt, "/v1/label", "P4\n1048576 1048576\n", ctPBM, http.StatusRequestEntityTooLarge},
		{dflt, "/v1/label?alg=paremsp", "P4\n1048576 1048576\n", ctPBM, http.StatusRequestEntityTooLarge},
		{dflt, "/v1/label", "P4\n20000 20000\n", ctPBM, http.StatusBadRequest},
		{dflt, "/v1/label?alg=paremsp", "P4\n20000 20000\n", ctPBM, http.StatusBadRequest},
		{dflt, "/v1/label?mode=gray", hugePNG, ctPNG, http.StatusRequestEntityTooLarge},
		{dflt, "/v1/stats", "P5\n1048576 1048576\n65535\n", ctPGM, http.StatusRequestEntityTooLarge},
		{dflt, "/v1/stats", "P4\n20000 20000\n", ctPBM, http.StatusBadRequest},
		{dflt, "/v1/volume", "P5\n1048576 1048576\n65535\n", ctPGM, http.StatusRequestEntityTooLarge},
		{dflt, "/v1/volume", "P5\n5000 5000\n255\n", ctPGM, http.StatusBadRequest},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp := post(t, c.srv.URL+c.path, c.ct, ctJSON, []byte(c.body))
		code := codeInvalidArgument
		if c.status == http.StatusRequestEntityTooLarge {
			code = codePayloadTooLarge
		}
		envelopeOf(t, resp, c.status, code)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Fatalf("%q %s: %d bytes allocated answering %d, want < 1 MiB", c.body, c.path, d, c.status)
		}
	}
}

// pngHeaderOnly is a PNG cut after its IHDR chunk (with a valid CRC),
// declaring a w×h 8-bit gray image.
func pngHeaderOnly(w, h uint32) []byte {
	ihdr := []byte("IHDR")
	ihdr = binary.BigEndian.AppendUint32(ihdr, w)
	ihdr = binary.BigEndian.AppendUint32(ihdr, h)
	ihdr = append(ihdr, 8, 0, 0, 0, 0) // bit depth 8, gray, deflate, no filter, no interlace
	out := append([]byte("\x89PNG\r\n\x1a\n"), 0, 0, 0, 13)
	out = append(out, ihdr...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(ihdr))
}

// palettedPNG encodes img as a two-entry paletted PNG (black background,
// white foreground), so the stream carries a PLTE chunk before its IDAT.
func palettedPNG(t *testing.T, img *paremsp.Image) []byte {
	t.Helper()
	p := image.NewPaletted(image.Rect(0, 0, img.Width, img.Height), color.Palette{color.Black, color.White})
	copy(p.Pix, img.Pix)
	var buf bytes.Buffer
	if err := png.Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

// TestPNGBodiesOnEveryKind: a PNG body, declared or sniffed, decodes on
// every endpoint and job kind that takes one, gray and contours jobs
// included. A paletted PNG whose 5 KiB tEXt chunk pushes PLTE and IDAT past
// the 4 KiB peek window passes the header check too: only IHDR is read.
func TestPNGBodiesOnEveryKind(t *testing.T) {
	_, _, srv := newJobsServer(t, Config{Workers: 1}, jobs.Options{TTL: time.Hour})
	img := testImage(t)
	bodies := []struct {
		name string
		body []byte
	}{
		{"gray", pngBody(t, img)},
		{"paletted, long tEXt", withTextChunk(palettedPNG(t, img), 5<<10)},
	}
	for _, b := range bodies {
		for _, path := range []string{"/v1/label", "/v1/label?contours=true", "/v1/label?alg=paremsp", "/v1/label?mode=gray"} {
			resp := post(t, srv.URL+path, ctPNG, ctJSON, b.body)
			var got labelResponse
			err := json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || err != nil {
				t.Fatalf("%s %s: status %d, %v", b.name, path, resp.StatusCode, err)
			}
			if path != "/v1/label?mode=gray" && got.NumComponents != 5 {
				t.Fatalf("%s %s: %d components, want 5", b.name, path, got.NumComponents)
			}
		}
		for _, q := range []string{"", "?kind=contours", "?kind=gray", "?mode=gray"} {
			for _, ct := range []string{ctPNG, "application/octet-stream"} {
				id := submitJobs(t, srv.URL+"/v1/jobs"+q, ct, b.body).Jobs[0].ID
				if j := pollJob(t, srv.URL, id, "done"); q != "?kind=gray" && q != "?mode=gray" && j.NumComponents != 5 {
					t.Fatalf("%s job%s (%s): %d components, want 5", b.name, q, ct, j.NumComponents)
				}
			}
		}
	}
}
