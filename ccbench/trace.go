package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	paremsp "repro"
	"repro/internal/band"
	"repro/internal/pnm"
	svcpkg "repro/internal/service"
	"repro/internal/stream"
)

// Span names: one per layer call the traced run replays, plus the request
// and the service engine call around the core or band labeling.
const (
	spRequest = "service.request" // Handler.ServeHTTP
	spEngine  = "service.engine"  // Engine.Label or Engine.Stats
	spDecode  = "pnm.decode"      // pnm.DecodeInto
	spCore    = "core.label"      // paremsp.LabelIntoCtx
	spStats   = "stats.components"
	spContour = "contour.trace"
	spEncode  = "pnm.encode" // paremsp.EncodeLabelsPNG
	spStream  = "stream.write"
	spBand    = "band.stream" // pnm.NewBandReaderBytes + band.Stream
)

// layerSpans are the spans a request's self time is taken from.
var layerSpans = []string{spDecode, spCore, spStats, spContour, spEncode, spStream, spBand}

// onPath reports whether the service runs the layer call name for a
// request of shape k. The replay runs every layer on every request; calls
// off the path measure the layer on the workload's inputs and are marked.
func onPath(k reqKind, name string) bool {
	switch name {
	case spDecode, spCore:
		return k != kStats
	case spStats:
		return k == kLabelJSON || k == kLabelComponents || k == kLabelContours
	case spContour:
		return k == kLabelContours
	case spEncode:
		return k == kLabelPNG
	case spStream:
		return k == kLabelCCL
	case spBand:
		return k == kStats
	}
	return true
}

// span is one timed call of the traced run. Spans of one request share its
// rid; the request span has parent 0.
type span struct {
	RID       int    `json:"rid"`
	ID        int64  `json:"id"`
	Parent    int64  `json:"parent"`
	Name      string `json:"name"`
	Kind      string `json:"kind,omitempty"`
	Input     int    `json:"input"`
	StartNs   int64  `json:"start_ns"` // since the traced run began
	EndNs     int64  `json:"end_ns"`
	OffPath   bool   `json:"off_path,omitempty"`
	Bytes     int64  `json:"bytes,omitempty"`
	Pixels    int64  `json:"pixels,omitempty"`
	Count     int64  `json:"count,omitempty"` // components, or contour points
	ScanNs    int64  `json:"scan_ns,omitempty"`
	MergeNs   int64  `json:"merge_ns,omitempty"`
	FlattenNs int64  `json:"flatten_ns,omitempty"`
	RelabelNs int64  `json:"relabel_ns,omitempty"`
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// replayer replays requests' layer calls on one client's goroutine and keeps
// that client's spans in memory.
type replayer struct {
	svc     *service
	threads int
	t0      time.Time
	ids     *atomic.Int64
	spans   []span
	img     paremsp.Image
	lm      paremsp.LabelMap
	sc      paremsp.Scratch
	// Calls off the service's path run once per distinct input and client:
	// they measure the layer on the workload's inputs, and repeating them
	// for a repeated input would only slow the traced run down.
	offDone    map[int]bool
	offPathDue bool
}

// timed runs fn as a span named name under parent and records it. An
// off-path call is skipped unless due for this request.
func (r *replayer) timed(rq request, name string, parent int64, fn func(s *span) error) (int64, error) {
	if !onPath(rq.kind, name) && !r.offPathDue {
		return 0, nil
	}
	s := span{RID: rq.seq, ID: r.ids.Add(1), Parent: parent, Name: name, Input: rq.in.id,
		OffPath: !onPath(rq.kind, name)}
	start := time.Now()
	err := fn(&s)
	end := time.Now()
	s.StartNs, s.EndNs = start.Sub(r.t0).Nanoseconds(), end.Sub(r.t0).Nanoseconds()
	r.spans = append(r.spans, s)
	if err != nil {
		return s.ID, fmt.Errorf("%s: %w", name, err)
	}
	return s.ID, nil
}

// replay records the request span of a request the client just sent, then
// calls each layer's public functions on the same input and options.
func (r *replayer) replay(rq request, start time.Time, lat time.Duration) error {
	ctx := context.Background()
	body, px := rq.in.body, int64(rq.in.w*rq.in.h)
	r.offPathDue = !r.offDone[rq.in.id]
	r.offDone[rq.in.id] = true
	reqID := r.ids.Add(1)
	s := start.Sub(r.t0).Nanoseconds()
	r.spans = append(r.spans, span{RID: rq.seq, ID: reqID, Name: spRequest, Kind: kinds[rq.kind].name,
		Input: rq.in.id, StartNs: s, EndNs: s + lat.Nanoseconds(), Bytes: int64(len(body)), Pixels: px})

	if _, err := r.timed(rq, spDecode, reqID, func(s *span) error {
		s.Bytes, s.Pixels = int64(len(body)), px
		return pnm.DecodeInto(bytes.NewReader(body), 0.5, &r.img)
	}); err != nil {
		return err
	}

	// The engine call the service makes for this request, around the same
	// core or band labeling the replay times next.
	eng := r.svc.engine
	coreParent, bandParent := reqID, reqID
	if rq.kind == kStats {
		src, err := pnm.NewBandReaderBytes(body, 0.5)
		if err != nil {
			return err
		}
		id, err := r.timed(rq, spEngine, reqID, func(*span) error {
			_, err := eng.Stats(ctx, src, band.Options{Ctx: ctx})
			return err
		})
		if err != nil {
			return err
		}
		bandParent = id
	} else {
		img := eng.GetImage()
		img.Reset(r.img.Width, r.img.Height)
		copy(img.Pix, r.img.Pix)
		var res *paremsp.Result
		id, err := r.timed(rq, spEngine, reqID, func(*span) error {
			var err error
			res, err = eng.Label(ctx, img, paremsp.Options{Mode: paremsp.ModeBinary})
			return err
		})
		if err != nil {
			return err
		}
		eng.PutResult(res)
		coreParent = id
	}

	var res *paremsp.Result
	if _, err := r.timed(rq, spCore, coreParent, func(s *span) error {
		var err error
		res, err = paremsp.LabelIntoCtx(ctx, &r.img, &r.lm, &r.sc,
			paremsp.Options{Mode: paremsp.ModeBinary, Threads: r.threads})
		if err != nil {
			return err
		}
		s.Pixels, s.Count = px, int64(res.NumComponents)
		s.ScanNs, s.MergeNs = res.Phases.Scan.Nanoseconds(), res.Phases.Merge.Nanoseconds()
		s.FlattenNs, s.RelabelNs = res.Phases.Flatten.Nanoseconds(), res.Phases.Relabel.Nanoseconds()
		return nil
	}); err != nil {
		return err
	}
	if _, err := r.timed(rq, spStats, reqID, func(s *span) error {
		s.Count = int64(len(paremsp.ComponentsOf(res.Labels)))
		return nil
	}); err != nil {
		return err
	}
	if _, err := r.timed(rq, spContour, reqID, func(s *span) error {
		cs, err := paremsp.TraceContoursCtx(ctx, res.Labels, res.NumComponents)
		for _, c := range cs {
			s.Count += int64(len(c.Points))
		}
		return err
	}); err != nil {
		return err
	}
	if _, err := r.timed(rq, spEncode, reqID, func(s *span) error {
		cw := countingWriter{n: &s.Bytes}
		return paremsp.EncodeLabelsPNG(cw, res.Labels)
	}); err != nil {
		return err
	}
	if _, err := r.timed(rq, spStream, reqID, func(s *span) error {
		cw := countingWriter{n: &s.Bytes}
		return stream.WriteLabels(cw, res.Labels, res.NumComponents)
	}); err != nil {
		return err
	}
	_, err := r.timed(rq, spBand, bandParent, func(s *span) error {
		src, err := pnm.NewBandReaderBytes(body, 0.5)
		if err != nil {
			return err
		}
		bres, err := band.Stream(src, band.Options{})
		if err != nil {
			return err
		}
		s.Pixels, s.Count = px, int64(bres.NumComponents)
		return nil
	})
	return err
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n *int64 }

func (w countingWriter) Write(p []byte) (int, error) {
	*w.n += int64(len(p))
	return len(p), nil
}

// spanDir is where the traced run writes its span dump, inside the
// checkout's build directory.
const spanDir = ".bench_build/spans"

// tracedBase is the first sequence number of the traced phase, so that it
// sends other inputs than the untraced phase where inputs are unique.
const tracedBase = 1 << 32

// measureLayers is the traced run: half of d untraced, with engine counter
// deltas around it, then half traced, then a core calibration on the
// workload's first input. It returns the per-layer metrics.
func measureLayers(w io.Writer, svc *service, wl *workload, d time.Duration, seed int64, env env) (report, error) {
	before, err := scrape(svc)
	if err != nil {
		return report{}, err
	}
	u := closedLoop(svc.handler, wl, d/2, 0, nil)
	after, err := scrape(svc)
	if err != nil {
		return report{}, err
	}
	fmt.Fprint(w, "untraced ")
	printLoop(w, u)

	threads := max(1, env.gomaxprocs/svc.engine.Workers())
	ids := new(atomic.Int64)
	t0 := time.Now()
	reps := make([]*replayer, wl.clients)
	errs := make([]error, wl.clients)
	for c := range reps {
		reps[c] = &replayer{svc: svc, threads: threads, t0: t0, ids: ids, offDone: map[int]bool{}}
	}
	t := closedLoop(svc.handler, wl, d/2, tracedBase, func(c int, rq request, start time.Time, lat time.Duration) {
		if err := reps[c].replay(rq, start, lat); err != nil && errs[c] == nil {
			errs[c] = fmt.Errorf("replaying request %d: %w", rq.seq, err)
		}
	})
	fmt.Fprint(w, "traced ")
	printLoop(w, t)
	for _, err := range errs {
		if err != nil {
			return report{}, err
		}
	}
	var spans []span
	for _, r := range reps {
		spans = append(spans, r.spans...)
	}
	path, err := writeSpans(spanDir, fmt.Sprintf("%s-seed%d.jsonl", wl.name, seed), spans)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(w, "spans: %d written to %s\n", len(spans), path)

	cal, err := calibrate(wl.gen(0).in, threads, env.nproc)
	if err != nil {
		return report{}, err
	}
	ms := reduceSpans(spans)
	for k, v := range cal {
		ms[k] = v
	}
	for k, v := range engineDeltas(before, after, u.wall) {
		ms[k] = v
	}
	ms["service.timing_gap_ms"] = metric{median(u.gapMs), "ms"}
	overhead := median(spanMs(pick(spans, spRequest))) - median(u.latMs)
	ms["trace.overhead_ms"] = metric{overhead, "ms"}
	fmt.Fprintf(w, "tracing overhead: traced request p50 minus untraced p50 = %.4f ms (%.2f%% of %.4f ms)\n",
		overhead, 100*overhead/median(u.latMs), median(u.latMs))
	fmt.Fprintf(w, "layers off this workload's path (timed on its inputs; the service does not run them here): %s\n",
		strings.Join(offPathLayers(spans), ", "))
	failed := u.failed + t.failed
	return report{Correct: failed == 0, Attempted: u.attempted + t.attempted, Failed: failed, Metrics: ms}, nil
}

// writeSpans writes the span dump as JSON Lines once the run has ended.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("span dump: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("span dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("span dump: %w", err)
	}
	return path, nil
}

// pick returns the spans named name that are on the service's path, or all
// of them when none is (the layer is off this workload's path).
func pick(spans []span, name string) []span {
	var on, all []span
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		all = append(all, s)
		if !s.OffPath {
			on = append(on, s)
		}
	}
	if len(on) > 0 {
		return on
	}
	return all
}

func spanMs(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms()
	}
	return out
}

// rate is the sum of field over the spans per second of their summed time,
// in millions.
func rate(ss []span, field func(span) int64) float64 {
	var n, ns int64
	for _, s := range ss {
		n += field(s)
		ns += s.EndNs - s.StartNs
	}
	if ns == 0 {
		return 0
	}
	return float64(n) / float64(ns) * 1e3
}

// perInput is the mean of field over the distinct inputs the spans cover,
// so repeated inputs do not weight it.
func perInput(ss []span, field func(span) int64) float64 {
	seen := map[int]bool{}
	var sum float64
	for _, s := range ss {
		if !seen[s.Input] {
			seen[s.Input] = true
			sum += float64(field(s))
		}
	}
	if len(seen) == 0 {
		return 0
	}
	return sum / float64(len(seen))
}

// phaseMs is the median of one core phase.
func phaseMs(ss []span, field func(span) int64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = float64(field(s)) / 1e6
	}
	return median(xs)
}

// reduceSpans turns the span dump into the per-layer metrics: medians of
// each layer's spans, work rates and counts, and the self times of the
// request (request minus its on-path layer spans) and of the engine call
// (engine minus the core or band span under it).
func reduceSpans(spans []span) map[string]metric {
	bytesOf := func(s span) int64 { return s.Bytes }
	pixelsOf := func(s span) int64 { return s.Pixels }
	countOf := func(s span) int64 { return s.Count }
	decode, encode, core := pick(spans, spDecode), pick(spans, spEncode), pick(spans, spCore)
	stats, bnd, contour := pick(spans, spStats), pick(spans, spBand), pick(spans, spContour)

	type reqAgg struct{ req, engine, layers, engineChildren float64 }
	byRID := map[int]*reqAgg{}
	engineOf := map[int64]int{}
	for _, s := range spans {
		a := byRID[s.RID]
		if a == nil {
			a = &reqAgg{}
			byRID[s.RID] = a
		}
		switch {
		case s.Name == spRequest:
			a.req = s.ms()
		case s.Name == spEngine:
			a.engine = s.ms()
			engineOf[s.ID] = s.RID
		}
	}
	for _, s := range spans {
		if s.OffPath || !slices.Contains(layerSpans, s.Name) {
			continue
		}
		a := byRID[s.RID]
		a.layers += s.ms()
		if _, ok := engineOf[s.Parent]; ok {
			a.engineChildren += s.ms()
		}
	}
	var self, engineSelf []float64
	for _, a := range byRID {
		self = append(self, a.req-a.layers)
		engineSelf = append(engineSelf, a.engine-a.engineChildren)
	}

	return map[string]metric{
		"pnm.decode_ms":          {median(spanMs(decode)), "ms"},
		"pnm.decode_mb_s":        {rate(decode, bytesOf), "MB/s"},
		"pnm.encode_ms":          {median(spanMs(encode)), "ms"},
		"pnm.encode_bytes":       {perInput(encode, bytesOf), "bytes"},
		"core.label_ms":          {median(spanMs(core)), "ms"},
		"core.mpx_s":             {rate(core, pixelsOf), "Mpx/s"},
		"core.scan_ms":           {phaseMs(core, func(s span) int64 { return s.ScanNs }), "ms"},
		"core.merge_ms":          {phaseMs(core, func(s span) int64 { return s.MergeNs }), "ms"},
		"core.flatten_ms":        {phaseMs(core, func(s span) int64 { return s.FlattenNs }), "ms"},
		"core.relabel_ms":        {phaseMs(core, func(s span) int64 { return s.RelabelNs }), "ms"},
		"stats.components_ms":    {median(spanMs(stats)), "ms"},
		"stats.components":       {perInput(stats, countOf), "count"},
		"band.stream_ms":         {median(spanMs(bnd)), "ms"},
		"band.mpx_s":             {rate(bnd, pixelsOf), "Mpx/s"},
		"contour.trace_ms":       {median(spanMs(contour)), "ms"},
		"contour.points":         {perInput(contour, countOf), "count"},
		"stream.write_ms":        {median(spanMs(pick(spans, spStream))), "ms"},
		"service.request_ms":     {median(spanMs(pick(spans, spRequest))), "ms"},
		"service.self_ms":        {median(self), "ms"},
		"service.engine_self_ms": {median(engineSelf), "ms"},
	}
}

// offPathLayers lists the layer spans that are never on the service's path
// in this run.
func offPathLayers(spans []span) []string {
	var out []string
	for _, name := range layerSpans {
		if ss := pick(spans, name); len(ss) > 0 && ss[0].OffPath {
			out = append(out, name)
		}
	}
	return out
}

// counters is one reading of the engine's counters and /metrics.
type counters struct {
	snap                 svcpkg.Snapshot
	queueSum, queueCount float64
}

// scrape reads Engine.Snapshot and the queue-wait histogram's sum and count
// from GET /metrics.
func scrape(svc *service) (counters, error) {
	c := counters{snap: svc.engine.Snapshot()}
	var rw respWriter
	rw.reset()
	req, err := http.NewRequest(http.MethodGet, "http://ccserve/metrics", nil)
	if err != nil {
		return c, err
	}
	svc.handler.ServeHTTP(&rw, req)
	found := 0
	for _, line := range strings.Split(rw.body.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		var dst *float64
		switch name {
		case "ccserve_queue_wait_ns_sum":
			dst = &c.queueSum
		case "ccserve_queue_wait_ns_count":
			dst = &c.queueCount
		default:
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return c, fmt.Errorf("/metrics: %s: %w", name, err)
		}
		*dst = v
		found++
	}
	if found != 2 {
		return c, fmt.Errorf("/metrics: queue-wait sum and count not found")
	}
	return c, nil
}

// engineDeltas derives the service counters of the untraced run from two
// readings around it.
func engineDeltas(a, b counters, wall time.Duration) map[string]metric {
	var gets, misses int64
	for i := range b.snap.Pools {
		gets += b.snap.Pools[i].Gets - a.snap.Pools[i].Gets
		misses += b.snap.Pools[i].Misses - a.snap.Pools[i].Misses
	}
	hit := 0.0
	if gets > 0 {
		hit = float64(gets-misses) / float64(gets)
	}
	wait := 0.0
	if n := b.queueCount - a.queueCount; n > 0 {
		wait = (b.queueSum - a.queueSum) / n / 1e6
	}
	busy := float64(b.snap.BusyNs-a.snap.BusyNs) / (float64(b.snap.Workers) * float64(wall.Nanoseconds()))
	return map[string]metric{
		"service.queue_wait_ms":    {wait, "ms"},
		"service.pool_hit_ratio":   {hit, "ratio"},
		"service.worker_busy_frac": {busy, "ratio"},
		"service.rejected":         {float64(b.snap.Rejected - a.snap.Rejected), "count"},
	}
}

// calibrate times the core layer alone on in, with nothing else running:
// allocations per warm LabelIntoCtx call at the service's thread count, and
// PAREMSP at one thread against nproc threads, alternated.
func calibrate(in *input, threads, nproc int) (map[string]metric, error) {
	var img paremsp.Image
	if err := pnm.DecodeInto(bytes.NewReader(in.body), 0.5, &img); err != nil {
		return nil, err
	}
	var lm paremsp.LabelMap
	var sc paremsp.Scratch
	label := func(t int) (float64, error) {
		start := time.Now()
		_, err := paremsp.LabelIntoCtx(context.Background(), &img, &lm, &sc,
			paremsp.Options{Algorithm: paremsp.AlgPAREMSP, Threads: t})
		return ms(time.Since(start)), err
	}
	if _, err := label(threads); err != nil {
		return nil, err
	}
	const allocRuns = 4
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocRuns; i++ {
		if _, err := label(threads); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&m1)

	var t1, tn []float64
	start := time.Now()
	for i := 0; i < 5 || (i < 50 && time.Since(start) < time.Second); i++ {
		a, err := label(1)
		if err != nil {
			return nil, err
		}
		b, err := label(nproc)
		if err != nil {
			return nil, err
		}
		t1, tn = append(t1, a), append(tn, b)
	}
	return map[string]metric{
		"core.allocs_per_call": {float64(m1.Mallocs-m0.Mallocs) / allocRuns, "count"},
		"core.label_ms_t1":     {median(t1), "ms"},
		"core.label_ms_tN":     {median(tn), "ms"},
		"core.speedup_tN":      {median(t1) / median(tn), "x"},
	}, nil
}
