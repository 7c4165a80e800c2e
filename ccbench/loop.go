package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/jobs"
	svcpkg "repro/internal/service"
)

// service is one in-process ccserve: engine, handler and job store built
// as cmd/ccserve builds them with default flags.
type service struct {
	engine  *svcpkg.Engine
	handler *svcpkg.Handler
	store   *jobs.Store
	cancel  context.CancelFunc
}

// standUp builds the service. The access log keeps ccserve's default
// info-level text format but goes to io.Discard, so its formatting cost is
// measured without flooding the benchmark's output.
func standUp() (*service, error) {
	store, err := jobs.Open(jobs.Options{Backend: jobs.BackendMemory, TTL: 15 * time.Minute})
	if err != nil {
		return nil, fmt.Errorf("opening job store: %w", err)
	}
	eng := svcpkg.NewEngine(svcpkg.Config{})
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	ctx, cancel := context.WithCancel(context.Background())
	h := svcpkg.NewHandler(eng, svcpkg.HandlerConfig{
		MaxImageBytes: 64 << 20,
		Level:         0.5,
		Jobs:          store,
		Obs:           svcpkg.NewObs(logger, 0),
		BaseContext:   ctx,
	})
	return &service{engine: eng, handler: h, store: store, cancel: cancel}, nil
}

// close stops the engine's workers and the job store.
func (s *service) close() {
	s.cancel()
	s.engine.Close()
	s.store.Close()
}

// measureSetup stands the service up wl.setupReps times, each time timing
// NewEngine + NewHandler + the first, cold-pool request, and returns the
// last service still running with the per-stand-up seconds.
func measureSetup(wl *workload) (*service, []float64, error) {
	var rw respWriter
	secs := make([]float64, wl.setupReps)
	var svc *service
	for rep := range secs {
		if svc != nil {
			svc.close()
		}
		rq := wl.gen(setupSeq + rep)
		req := newRequest(rq)
		runtime.GC()
		start := time.Now()
		var err error
		svc, err = standUp()
		if err != nil {
			return nil, nil, err
		}
		rw.reset()
		svc.handler.ServeHTTP(&rw, req)
		secs[rep] = time.Since(start).Seconds()
		if err := check(rq, rw.code, rw.hdr, rw.body.Bytes()); err != nil {
			svc.close()
			return nil, nil, fmt.Errorf("cold request %s: %w", kinds[rq.kind].name, err)
		}
	}
	return svc, secs, nil
}

// respWriter is a reusable in-memory http.ResponseWriter, one per client.
type respWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(p)
}

func (w *respWriter) reset() {
	if w.hdr == nil {
		w.hdr = make(http.Header)
	}
	clear(w.hdr)
	w.code = 0
	w.body.Reset()
}

// newRequest builds the HTTP request for rq.
func newRequest(rq request) *http.Request {
	k := kinds[rq.kind]
	req, err := http.NewRequest(http.MethodPost, "http://ccserve"+k.target, bytes.NewReader(rq.in.body))
	if err != nil {
		panic(err) // the targets are constants
	}
	req.Header.Set("Content-Type", rq.in.ctype)
	if k.accept != "" {
		req.Header.Set("Accept", k.accept)
	}
	return req
}

// loopResult is what one closed-loop run measured.
type loopResult struct {
	attempted, failed int
	okMpx             float64       // input megapixels of correct answers
	wall              time.Duration // first send to last reply
	latMs             []float64     // ServeHTTP time of every request
	gapMs             []float64     // ServeHTTP time minus Server-Timing total
	distinct          int           // distinct inputs sent
	firstErr          error
}

// afterFunc runs on a client's goroutine after each checked request; the
// traced run replays the request's layer calls there.
type afterFunc func(client int, rq request, start time.Time, lat time.Duration)

// closedLoop drives h with wl.clients closed-loop clients for d: client c
// sends requests base+c, base+c+clients, ... and sends each only after the
// previous reply has been checked. It returns when every client's last
// request has completed.
func closedLoop(h http.Handler, wl *workload, d time.Duration, base int, after afterFunc) *loopResult {
	parts := make([]loopResult, wl.clients)
	inputs := make([]map[int]bool, wl.clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &parts[c]
			inputs[c] = map[int]bool{}
			var rw respWriter
			for seq := base + c; time.Now().Before(deadline); seq += wl.clients {
				rq := wl.gen(seq)
				req := newRequest(rq)
				rw.reset()
				t0 := time.Now()
				h.ServeHTTP(&rw, req)
				lat := time.Since(t0)
				p.attempted++
				p.latMs = append(p.latMs, ms(lat))
				inputs[c][rq.in.id] = true
				if err := check(rq, rw.code, rw.hdr, rw.body.Bytes()); err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = fmt.Errorf("request %d (%s): %w", seq, kinds[rq.kind].name, err)
					}
				} else {
					p.okMpx += float64(rq.in.w*rq.in.h) / 1e6
				}
				if total, ok := serverTimingTotal(rw.hdr.Get("Server-Timing")); ok {
					p.gapMs = append(p.gapMs, ms(lat)-total)
				}
				if after != nil {
					after(c, rq, t0, lat)
				}
			}
		}()
	}
	wg.Wait()
	res := &loopResult{wall: time.Since(start)}
	seen := map[int]bool{}
	for c, p := range parts {
		res.attempted += p.attempted
		res.failed += p.failed
		res.okMpx += p.okMpx
		res.latMs = append(res.latMs, p.latMs...)
		res.gapMs = append(res.gapMs, p.gapMs...)
		if res.firstErr == nil {
			res.firstErr = p.firstErr
		}
		for id := range inputs[c] {
			seen[id] = true
		}
	}
	res.distinct = len(seen)
	return res
}

// serverTimingTotal extracts the total;dur= entry (milliseconds) of a
// Server-Timing header value.
func serverTimingTotal(v string) (float64, bool) {
	for _, part := range strings.Split(v, ",") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(part), "total;dur="); ok {
			f, err := strconv.ParseFloat(rest, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
