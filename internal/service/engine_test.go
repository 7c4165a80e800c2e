package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	paremsp "repro"
	"repro/internal/band"
	"repro/internal/dataset"
	"repro/internal/jobs"
	"repro/internal/pnm"
)

// kindCase is one engine task kind reached over HTTP, plus a constructor
// for the same kind of task that the engine tests submit directly.
type kindCase struct {
	name, path, ct, accept string
	body                   []byte
	task                   func(t *testing.T, e *Engine) task
}

func kindCases(t *testing.T) []kindCase {
	pbm := pbmBody(t, testImage(t))
	gbody, gimg := grayBody(t, 31, 17, 5)
	vbody, vol := volumeBody(t, 9, 7, 5, 6)
	return []kindCase{
		{"image", "/v1/label?alg=paremsp", ctPBM, ctJSON, pbm, func(t *testing.T, e *Engine) task {
			return e.imageTask(testImage(t), paremsp.Options{})
		}},
		{"bitmap", "/v1/label", ctPBM, ctPGM, pbm, func(t *testing.T, e *Engine) task {
			return e.bitmapTask(paremsp.NewBitmap(8, 8), paremsp.Options{})
		}},
		{"bitmap-stats", "/v1/label", ctPBM, ctJSON, pbm, func(t *testing.T, e *Engine) task {
			return e.bitmapStatsTask(paremsp.NewBitmap(8, 8), paremsp.Options{}, true)
		}},
		{"gray", "/v1/label?mode=gray", ctPGM, ctJSON, gbody, func(t *testing.T, e *Engine) task {
			g := e.grays.get()
			g.Reset(gimg.Width, gimg.Height)
			copy(g.Pix, gimg.Pix)
			return e.grayTask(g, paremsp.Options{Mode: paremsp.ModeGray})
		}},
		{"volume", "/v1/volume", ctPGM, ctJSON, vbody, func(t *testing.T, e *Engine) task {
			v := e.volumes.get()
			v.Reset(vol.W, vol.H, vol.D)
			copy(v.Vox, vol.Vox)
			return e.volumeTask(v, paremsp.Options{Mode: paremsp.ModeVolume})
		}},
		{"stream", "/v1/stats", ctPBM, ctJSON, pbm, func(t *testing.T, e *Engine) task {
			src, err := pnm.NewBandReaderBytes(pbm, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			return e.streamTask(src, band.Options{})
		}},
	}
}

// TestTaskPanicAndCancel: for every task kind, a panic on the worker
// answers 500 (ErrWorkerPanic) and counts once in Snapshot().Panics, the
// next request of the same kind succeeds on the surviving worker, and a
// pre-canceled context fails with context.Canceled.
func TestTaskPanicAndCancel(t *testing.T) {
	for _, c := range kindCases(t) {
		t.Run(c.name, func(t *testing.T) {
			eng, srv := newTestServer(t, Config{Workers: 1, Threads: 1}, HandlerConfig{})
			var calls atomic.Int32
			eng.hook = func(ctx context.Context) error {
				if calls.Add(1) == 1 {
					panic("task exploded")
				}
				return nil
			}
			status := func() (int, []byte) {
				resp := post(t, srv.URL+c.path, c.ct, c.accept, c.body)
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body)
				return resp.StatusCode, b
			}
			if code, b := status(); code != http.StatusInternalServerError || !bytes.Contains(b, []byte(ErrWorkerPanic.Error())) {
				t.Fatalf("panicking request: status %d (%s), want 500 with %q", code, b, ErrWorkerPanic)
			}
			if got := eng.Snapshot().Panics; got != 1 {
				t.Fatalf("Snapshot().Panics = %d, want 1", got)
			}
			if code, b := status(); code != http.StatusOK {
				t.Fatalf("request after the panic: status %d (%s), want 200", code, b)
			}

			dead, cancel := context.WithCancel(context.Background())
			cancel()
			if err := eng.do(dead, c.task(t, eng)).err; !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-canceled task: err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestPoolTrafficPerKind pins the pooled buffers one request of each kind
// borrows, as gets per pool in Snapshot().Pools order (image, bitmap,
// labelmap, scratch, gray, volume, labelvol).
func TestPoolTrafficPerKind(t *testing.T) {
	pbm := pbmBody(t, testImage(t))
	gbody, _ := grayBody(t, 31, 17, 5)
	vbody, _ := volumeBody(t, 9, 7, 5, 6)
	for _, c := range []struct {
		name, path, ct, accept string
		body                   []byte
		want                   [poolCount]int64
	}{
		{"label-json", "/v1/label", ctPBM, ctJSON, pbm, [poolCount]int64{0, 1, 0, 1, 0, 0, 0}},
		{"label-pgm", "/v1/label", ctPBM, ctPGM, pbm, [poolCount]int64{0, 1, 1, 1, 0, 0, 0}},
		{"label-contours", "/v1/label?contours=true", ctPBM, ctJSON, pbm, [poolCount]int64{0, 1, 1, 1, 0, 0, 0}},
		{"label-paremsp", "/v1/label?alg=paremsp", ctPBM, ctJSON, pbm, [poolCount]int64{1, 1, 1, 1, 0, 0, 0}},
		{"label-png-in", "/v1/label", ctPNG, ctJSON, pngBody(t, testImage(t)), [poolCount]int64{0, 1, 0, 1, 0, 0, 0}},
		{"label-gray", "/v1/label?mode=gray", ctPGM, ctJSON, gbody, [poolCount]int64{0, 0, 1, 1, 1, 0, 0}},
		{"volume", "/v1/volume", ctPGM, ctJSON, vbody, [poolCount]int64{0, 0, 0, 1, 0, 1, 1}},
		{"stats", "/v1/stats", ctPBM, ctJSON, pbm, [poolCount]int64{}},
		{"job-labels", "/v1/jobs", ctPBM, ctJSON, pbm, [poolCount]int64{0, 1, 1, 1, 0, 0, 0}},
		{"job-gray", "/v1/jobs?mode=gray", ctPGM, ctJSON, gbody, [poolCount]int64{0, 0, 1, 1, 1, 0, 0}},
		{"job-volume", "/v1/jobs?kind=volume", ctPGM, ctJSON, vbody, [poolCount]int64{0, 0, 0, 1, 0, 1, 1}},
		{"job-stats", "/v1/jobs?kind=stats", ctPBM, ctJSON, pbm, [poolCount]int64{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng, _, srv := newJobsServer(t, Config{Workers: 1, Threads: 1}, jobs.Options{TTL: time.Hour})
			resp := post(t, srv.URL+c.path, c.ct, c.accept, c.body)
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
			case http.StatusAccepted:
				var sub jobsSubmitResponse
				if err := json.Unmarshal(b, &sub); err != nil {
					t.Fatal(err)
				}
				pollJob(t, srv.URL, sub.Jobs[0].ID, string(jobs.StateDone))
			default:
				t.Fatalf("status %d: %s", resp.StatusCode, b)
			}
			var got [poolCount]int64
			for i, p := range eng.Snapshot().Pools {
				got[i] = p.Gets
			}
			if got != c.want {
				t.Fatalf("pool gets %v, want %v", got, c.want)
			}
		})
	}
}

// serverTimingScan matches the scan entry of a Server-Timing header.
var serverTimingScan = regexp.MustCompile(`scan;dur=([0-9.]+)`)

// TestBREMSPReportsPhases: alg=bremsp times its phases like pbremsp does —
// a JSON phases object with scan_ns > 0 on both the label-map-free JSON
// path and the raster path (contours), and a non-zero scan entry in
// Server-Timing, PGM answers included.
func TestBREMSPReportsPhases(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1}, HandlerConfig{})
	body := pbmBody(t, dataset.LandCover(512, 512, 16, 0.5, 3))
	for _, c := range []struct{ name, query, accept string }{
		{"json", "", ctJSON},
		{"json-raster", "&contours=true", ctJSON},
		{"pgm", "", ctPGM},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp := post(t, srv.URL+"/v1/label?alg=bremsp"+c.query, ctPBM, c.accept, body)
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, b)
			}
			m := serverTimingScan.FindStringSubmatch(resp.Header.Get("Server-Timing"))
			if m == nil {
				t.Fatalf("Server-Timing %q has no scan entry", resp.Header.Get("Server-Timing"))
			}
			if ms, _ := strconv.ParseFloat(m[1], 64); ms <= 0 {
				t.Fatalf("Server-Timing scan = %s ms, want > 0", m[1])
			}
			if c.accept != ctJSON {
				return
			}
			var lr labelResponse
			if err := json.Unmarshal(b, &lr); err != nil {
				t.Fatal(err)
			}
			if lr.Phases == nil || lr.Phases.ScanNs <= 0 {
				t.Fatalf("phases = %+v, want scan_ns > 0", lr.Phases)
			}
		})
	}
}
