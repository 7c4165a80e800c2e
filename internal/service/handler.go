package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	paremsp "repro"
	"repro/internal/band"
	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/pnm"
	"repro/internal/stream"
)

// Media types the service speaks.
const (
	ctPBM  = "image/x-portable-bitmap"
	ctPGM  = "image/x-portable-graymap"
	ctPNM  = "image/x-portable-anymap"
	ctPNG  = "image/png"
	ctCCL  = "application/x-ccl"
	ctJSON = "application/json"
)

// HandlerConfig configures NewHandler.
type HandlerConfig struct {
	// MaxImageBytes caps the request body; larger uploads get 413.
	// 0 selects 64 MiB.
	MaxImageBytes int64
	// Level is the default binarization threshold for grayscale input
	// (im2bw semantics); requests override it with ?level=. 0 selects the
	// paper's 0.5.
	Level float64
	// DefaultAlgorithm is used when a binary-mode request does not pin
	// ?alg=. Empty selects pbremsp, the bit-packed parallel labeler: raw
	// PNM uploads decode straight into a packed bitmap, and JSON answers
	// without contours fold component statistics from its runs without a
	// label map. Its labels are numbered in raster order of each
	// component's first pixel, chunk-major when it runs on several
	// threads. The gray and volume modes ignore this setting and use their
	// own default (the paper's PAREMSP machinery), as does the library
	// when Options.Algorithm is empty.
	DefaultAlgorithm paremsp.Algorithm
	// Jobs, when non-nil, enables the asynchronous job API (POST /v1/jobs
	// and the /v1/jobs/{id} endpoints) backed by this store. The handler
	// does not own the store; the caller closes it.
	Jobs *jobs.Store
	// Obs carries the request-observability state: the structured logger,
	// the per-endpoint latency histograms, and the trace ring that
	// NewDebugHandler dumps. nil creates a private, non-logging Obs (the
	// histograms and /metrics exposition still work).
	Obs *Obs
	// RequestTimeout bounds a synchronous labeling request's labeling (queue
	// wait + compute + result wait). A request that exceeds it has its job
	// canceled and answers 504. 0 disables the server-side timeout.
	RequestTimeout time.Duration
	// JobTimeout bounds an async job from submission to terminal state; a
	// job that exceeds it is canceled (terminal state "canceled"). 0
	// disables the timeout.
	JobTimeout time.Duration
	// BaseContext, when non-nil, parents every async job's context so that
	// canceling it (server drain/shutdown) cancels queued and running jobs.
	// nil selects context.Background(), restoring fire-and-forget jobs.
	BaseContext context.Context
}

// Handler is the service's HTTP surface — an http.Handler that additionally
// exposes the drain lifecycle (StartDrain/Draining). Create it with
// NewHandler.
type Handler struct {
	engine     *Engine
	maxBytes   int64
	level      float64
	defaultAlg paremsp.Algorithm
	jobs       *jobs.Store
	obs        *Obs
	reqTimeout time.Duration
	jobTimeout time.Duration
	baseCtx    context.Context

	// draining makes admission endpoints answer 503 and flips /healthz to
	// "draining" once StartDrain is called.
	draining atomic.Bool

	// root is the observability-wrapped mux ServeHTTP delegates to.
	root http.Handler
}

// NewHandler wraps an Engine in the service's HTTP surface: POST /v1/label,
// POST /v1/stats, GET /healthz, GET /metrics, and — when cfg.Jobs is set —
// the asynchronous job API POST /v1/jobs, GET /v1/jobs/{id},
// GET /v1/jobs/{id}/result, DELETE /v1/jobs/{id}. Every route runs inside
// the observability middleware: responses carry X-Request-ID (inbound IDs
// are honored, otherwise one is minted), access lines go to the Obs
// logger, per-endpoint latency feeds the /metrics histograms, and each
// request leaves a phase trace in the Obs ring buffer.
func NewHandler(e *Engine, cfg HandlerConfig) *Handler {
	h := &Handler{
		engine:     e,
		maxBytes:   cfg.MaxImageBytes,
		level:      cfg.Level,
		defaultAlg: cfg.DefaultAlgorithm,
		jobs:       cfg.Jobs,
		obs:        cfg.Obs,
		reqTimeout: cfg.RequestTimeout,
		jobTimeout: cfg.JobTimeout,
		baseCtx:    cfg.BaseContext,
	}
	if h.maxBytes <= 0 {
		h.maxBytes = 64 << 20
	}
	if h.defaultAlg == "" {
		h.defaultAlg = paremsp.AlgPBREMSP
	}
	if h.level == 0 {
		h.level = 0.5
	}
	if h.obs == nil {
		h.obs = NewObs(nil, 0)
	}
	if h.baseCtx == nil {
		h.baseCtx = context.Background()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/label", h.label)
	mux.HandleFunc("POST /v1/stats", h.stats)
	mux.HandleFunc("POST /v1/volume", h.volume)
	mux.HandleFunc("GET /healthz", h.healthz)
	mux.HandleFunc("GET /metrics", h.metrics)
	if h.jobs != nil {
		mux.HandleFunc("POST /v1/jobs", h.jobsSubmit)
		mux.HandleFunc("GET /v1/jobs/{id}", h.jobStatus)
		mux.HandleFunc("GET /v1/jobs/{id}/result", h.jobResult)
		mux.HandleFunc("DELETE /v1/jobs/{id}", h.jobDelete)
	}
	h.root = h.obs.middleware(mux)
	return h
}

// ServeHTTP dispatches to the handler's observability-wrapped mux.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.root.ServeHTTP(w, r) }

// StartDrain flips the handler into drain mode: admission endpoints
// (/v1/label, /v1/stats, POST /v1/jobs) answer 503 with a Retry-After hint
// and /healthz reports "draining" with 503 so load balancers take the
// instance out of rotation. Read endpoints (job status/result, /metrics)
// keep working so in-flight outcomes stay fetchable during the drain
// window. Idempotent; there is no undo.
func (h *Handler) StartDrain() { h.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (h *Handler) Draining() bool { return h.draining.Load() }

// rejectDraining answers an admission attempt made during drain.
func (h *Handler) rejectDraining(w http.ResponseWriter) {
	secs := int(math.Ceil(h.engine.RetryAfter().Seconds()))
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusServiceUnavailable, codeUnavailable, "server is draining")
}

// labelCtx derives the context a synchronous labeling runs under: the
// request's, deadline-bounded when RequestTimeout is configured.
func (h *Handler) labelCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if h.reqTimeout > 0 {
		return context.WithTimeout(r.Context(), h.reqTimeout)
	}
	return r.Context(), func() {}
}

func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if h.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (h *Handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.engine.Snapshot().WriteTo(w)
	h.engine.writeHistograms(w)
	h.obs.writeRequestHists(w)
	writeRuntimeMetrics(w)
	if h.jobs != nil {
		writeJobsMetrics(w, h.jobs.Counts())
	}
}

// rejectBusy writes the 429 for a full queue, with a Retry-After derived
// from the engine's observed mean job latency and current backlog instead
// of a fixed guess.
func (h *Handler) rejectBusy(w http.ResponseWriter, err error) {
	secs := int(math.Ceil(h.engine.RetryAfter().Seconds()))
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusTooManyRequests, codeQueueFull, err.Error())
}

// writeEngineError maps an engine/labeling error to its envelope: 429 on
// backpressure (Retry-After set), 503 on shutdown or client cancellation,
// 500 for a contained worker panic, 504 for a lapsed deadline, 413 for a
// body that ran over the cap mid-stream, 400 for option-validation
// failures. Shared by every endpoint that runs work on the engine.
func (h *Handler) writeEngineError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, ErrQueueFull):
		h.rejectBusy(w, err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, codeUnavailable, err.Error())
	case errors.Is(err, ErrWorkerPanic):
		// Contained worker panic: this one job failed, the server is
		// healthy — a retry may well succeed.
		writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		// The -request-timeout budget (or the client's own deadline)
		// lapsed; the labeling was canceled at its next poll point.
		writeError(w, http.StatusGatewayTimeout, codeTimeout, err.Error())
	case errors.Is(err, context.Canceled):
		// Client gave up; nothing useful to write.
		writeError(w, http.StatusServiceUnavailable, codeUnavailable, err.Error())
	case errors.As(err, &tooBig):
		// The body ran over the cap mid-stream, after labeling began.
		writeError(w, http.StatusRequestEntityTooLarge, codePayloadTooLarge,
			fmt.Sprintf("image exceeds %d bytes", tooBig.Limit))
	default:
		// Engine labeling errors are option-validation failures
		// (unknown algorithm, unsupported connectivity or mode).
		writeError(w, http.StatusBadRequest, codeInvalidArgument, err.Error())
	}
}

// labelResponse is the JSON body of a successful /v1/label request.
type labelResponse struct {
	Width         int             `json:"width"`
	Height        int             `json:"height"`
	NumComponents int             `json:"num_components"`
	Density       float64         `json:"density"`
	Phases        *phasesJSON     `json:"phases,omitempty"`
	Components    []componentJSON `json:"components,omitempty"`
	Contours      []contourJSON   `json:"contours,omitempty"`
}

type phasesJSON struct {
	ScanNs    int64 `json:"scan_ns"`
	MergeNs   int64 `json:"merge_ns"`
	FlattenNs int64 `json:"flatten_ns"`
	RelabelNs int64 `json:"relabel_ns"`
}

// phasesJSONFrom renders a labeling's phase times, or nil (omitted) when
// none were recorded.
func phasesJSONFrom(p paremsp.PhaseTimes) *phasesJSON {
	if p.Total() <= 0 {
		return nil
	}
	return &phasesJSON{
		ScanNs:    p.Scan.Nanoseconds(),
		MergeNs:   p.Merge.Nanoseconds(),
		FlattenNs: p.Flatten.Nanoseconds(),
		RelabelNs: p.Relabel.Nanoseconds(),
	}
}

// componentJSON is one component's statistics, shared by /v1/label,
// /v1/stats and job results. Runs is known only to the streaming band
// labeler, so only /v1/stats carries it.
type componentJSON struct {
	Label    int32      `json:"label"`
	Area     int        `json:"area"`
	BBox     [4]int     `json:"bbox"` // min_x, min_y, max_x, max_y (inclusive)
	Centroid [2]float64 `json:"centroid"`
	Runs     int64      `json:"runs,omitempty"`
}

// contourJSON is one component's outer boundary polyline: clockwise
// boundary pixels as [x, y] pairs (Moore tracing, 8-connectivity).
type contourJSON struct {
	Label  int32    `json:"label"`
	Points [][2]int `json:"points"`
}

func contoursJSONFrom(cs []paremsp.Contour) []contourJSON {
	out := make([]contourJSON, len(cs))
	for i, c := range cs {
		pts := make([][2]int, len(c.Points))
		for j, p := range c.Points {
			pts[j] = [2]int{p.X, p.Y}
		}
		out[i] = contourJSON{Label: int32(c.Label), Points: pts}
	}
	return out
}

// label handles POST /v1/label for the 2-D modes. mode=binary (default)
// takes PBM/PGM/PNG and binarizes grayscale at ?level=; mode=gray and
// mode=gray-delta take PGM/PNG and label the gray levels directly
// (exact-value components, or delta-tolerant ones). ?contours=true
// additionally traces each component's outer boundary into the JSON
// response (JSON only). mode=volume is served by POST /v1/volume.
func (h *Handler) label(w http.ResponseWriter, r *http.Request) {
	if h.draining.Load() {
		h.rejectDraining(w)
		return
	}
	spec, aerr := h.parseSpec(r, paremsp.ModeBinary)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	if spec.mode == paremsp.ModeVolume {
		writeError(w, http.StatusBadRequest, codeInvalidArgument,
			"mode volume is served by POST /v1/volume")
		return
	}
	accept, ok := negotiateAccept(r.Header.Get("Accept"))
	if !ok {
		writeError(w, http.StatusNotAcceptable, codeNotAcceptable,
			fmt.Sprintf("unsupported Accept %q (want %s, %s, %s or %s)",
				r.Header.Get("Accept"), ctJSON, ctPGM, ctPNG, ctCCL))
		return
	}
	if spec.contours && accept != ctJSON {
		writeError(w, http.StatusNotAcceptable, codeNotAcceptable,
			fmt.Sprintf("contours are %s only", ctJSON))
		return
	}
	tr := traceFrom(r.Context())
	if tr != nil {
		tr.Alg = string(spec.opt.Algorithm)
		if tr.Alg == "" {
			tr.Alg = string(paremsp.AlgPAREMSP)
		}
	}

	// A JSON answer without contours reads no label raster: a bit-packed
	// labeler folds the statistics from its runs (or only counts) instead.
	wantLabels := accept != ctJSON || spec.contours
	body := bufio.NewReader(http.MaxBytesReader(w, r.Body, h.maxBytes))
	decodeStart := time.Now()
	t, sh, err := h.decodeTask(jobs.KindLabels, spec, r.Header.Get("Content-Type"), body, bodyLen(r), wantLabels)
	if err != nil {
		h.decodeError(w, err)
		return
	}
	if tr != nil {
		tr.DecodeNs = time.Since(decodeStart).Nanoseconds()
		tr.Pixels = int64(sh.width) * int64(sh.height)
	}
	ctx, cancel := h.labelCtx(r)
	defer cancel()
	out := h.engine.do(ctx, t)
	if out.err != nil {
		h.writeEngineError(w, out.err)
		return
	}
	res := out.res
	defer h.engine.PutResult(res)

	comps := out.comps
	if spec.components && accept == ctJSON && res.Labels != nil {
		comps = paremsp.ComponentsOf(res.Labels)
	}
	var contours []paremsp.Contour
	if spec.contours {
		// Tracing runs on the request goroutine under the request context:
		// it is output shaping, not labeling, so it does not hold a worker.
		contours, err = paremsp.TraceContoursCtx(ctx, res.Labels, res.NumComponents)
		if err != nil {
			h.writeEngineError(w, err)
			return
		}
	}
	encodeStart := time.Now()
	if tr != nil {
		tr.setPhases(res.Phases.Scan, res.Phases.Merge, res.Phases.Flatten, res.Phases.Relabel)
		// Server-Timing must precede the body; encode time therefore lives
		// only in the /debug/requests trace record.
		w.Header().Set("Server-Timing", string(appendServerTiming(nil, tr, encodeStart.Sub(tr.Start))))
	}
	writeLabeling(w, accept, sh.width, sh.height, sh.density, res.Labels, res.NumComponents, res.Phases, comps, contours)
	if tr != nil {
		tr.EncodeNs = time.Since(encodeStart).Nanoseconds()
	}
}

// writeLabeling renders a finished labeling in the negotiated format; a
// nil comps omits the per-component list from JSON, a nil contours the
// boundary polylines (raster formats carry neither). It is shared by the
// synchronous /v1/label response (which computes comps on demand) and the
// async job result endpoint (which serves them precomputed).
func writeLabeling(w http.ResponseWriter, accept string, width, height int, density float64,
	lm *paremsp.LabelMap, numComponents int, phases paremsp.PhaseTimes, comps []paremsp.Component,
	contours []paremsp.Contour) {
	if d := faultinject.Delay(faultinject.EncodeSlow); d > 0 {
		time.Sleep(d)
	}
	switch accept {
	case ctJSON:
		resp := labelResponse{
			Width:         width,
			Height:        height,
			NumComponents: numComponents,
			Density:       density,
			Phases:        phasesJSONFrom(phases),
		}
		if comps != nil {
			resp.Components = make([]componentJSON, len(comps))
			for i, c := range comps {
				resp.Components[i] = componentJSON{
					Label:    c.Label,
					Area:     c.Area,
					BBox:     [4]int{c.MinX, c.MinY, c.MaxX, c.MaxY},
					Centroid: [2]float64{c.CentroidX, c.CentroidY},
				}
			}
		}
		if contours != nil {
			resp.Contours = contoursJSONFrom(contours)
		}
		w.Header().Set("Content-Type", ctJSON)
		json.NewEncoder(w).Encode(resp)
	case ctPGM:
		w.Header().Set("Content-Type", ctPGM)
		paremsp.EncodeLabelsPGM(w, lm)
	case ctPNG:
		w.Header().Set("Content-Type", ctPNG)
		paremsp.EncodeLabelsPNG(w, lm)
	case ctCCL:
		w.Header().Set("Content-Type", ctCCL)
		stream.WriteLabels(w, lm, numComponents)
	}
}

// statsResponse is the JSON body of a successful /v1/stats request.
type statsResponse struct {
	Width         int             `json:"width"`
	Height        int             `json:"height"`
	NumComponents int             `json:"num_components"`
	Density       float64         `json:"density"`
	BandRows      int             `json:"band_rows"`
	Components    []componentJSON `json:"components"`
}

// stats handles POST /v1/stats: the request body (PBM or PGM, raw or
// plain) is streamed through the out-of-core band labeler, so arbitrarily
// tall images — chunked uploads included — are labeled in O(band) memory and
// only their component statistics come back. Query parameters: level
// (binarization threshold for PGM), band (band height in rows, 0 = default).
// The response is always JSON; there is no label raster to return.
func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	if h.draining.Load() {
		h.rejectDraining(w)
		return
	}
	if accept, ok := negotiateAccept(r.Header.Get("Accept")); !ok || accept != ctJSON {
		writeError(w, http.StatusNotAcceptable, codeNotAcceptable,
			fmt.Sprintf("unsupported Accept %q (stats responses are %s)",
				r.Header.Get("Accept"), ctJSON))
		return
	}
	spec, aerr := h.parseSpec(r, paremsp.ModeBinary)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	if spec.mode != paremsp.ModeBinary {
		writeError(w, http.StatusBadRequest, codeInvalidArgument,
			fmt.Sprintf("stats supports only mode=%s (the band labeler streams binary rasters)", paremsp.ModeBinary))
		return
	}

	decodeStart := time.Now()
	body := bufio.NewReader(http.MaxBytesReader(w, r.Body, h.maxBytes))
	t, sh, err := h.decodeTask(jobs.KindStats, spec, "", body, bodyLen(r), false)
	if err != nil {
		h.decodeError(w, err)
		return
	}
	tr := traceFrom(r.Context())
	if tr != nil {
		// Only the header parse happens up front — band decoding is
		// interleaved with labeling on the worker — so DecodeNs here is
		// the header cost and the streamed pass lands in queue+total.
		tr.DecodeNs = time.Since(decodeStart).Nanoseconds()
		tr.Alg = "band"
		tr.Pixels = int64(sh.width) * int64(sh.height)
	}
	ctx, cancel := h.labelCtx(r)
	defer cancel()
	out := h.engine.do(ctx, t)
	if out.err != nil {
		h.writeEngineError(w, out.err)
		return
	}

	w.Header().Set("Content-Type", ctJSON)
	json.NewEncoder(w).Encode(statsResponseFrom(out.bres, spec.bandRows))
}

// volumeResponse is the JSON body of a successful /v1/volume request (and
// of a done volume job's result). The labeled voxel grid itself is not
// returned — at W*H*D*4 bytes it dwarfs the input — only the component
// summary; ?components=false drops the per-component voxel counts too.
type volumeResponse struct {
	Width          int   `json:"width"`
	Height         int   `json:"height"`
	Depth          int   `json:"depth"`
	NumComponents  int   `json:"num_components"`
	ComponentSizes []int `json:"component_sizes,omitempty"`
}

// volume handles POST /v1/volume: the body is a stack of concatenated
// raw-PGM (P5) frames — every frame one z-slice, all with identical
// dimensions — binarized at ?level= and labeled as one 3-D volume with
// 26-connectivity, slab-parallel per the paper's chunked scheme. The
// response is always JSON.
func (h *Handler) volume(w http.ResponseWriter, r *http.Request) {
	if h.draining.Load() {
		h.rejectDraining(w)
		return
	}
	if accept, ok := negotiateAccept(r.Header.Get("Accept")); !ok || accept != ctJSON {
		writeError(w, http.StatusNotAcceptable, codeNotAcceptable,
			fmt.Sprintf("unsupported Accept %q (volume responses are %s)",
				r.Header.Get("Accept"), ctJSON))
		return
	}
	spec, aerr := h.parseSpec(r, paremsp.ModeVolume)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	if spec.mode != paremsp.ModeVolume {
		writeError(w, http.StatusBadRequest, codeInvalidArgument,
			fmt.Sprintf("mode %s is served by POST /v1/label", spec.mode))
		return
	}

	decodeStart := time.Now()
	body := bufio.NewReader(http.MaxBytesReader(w, r.Body, h.maxBytes))
	t, sh, err := h.decodeTask(jobs.KindVolume, spec, "", body, bodyLen(r), true)
	if err != nil {
		h.decodeError(w, err)
		return
	}
	tr := traceFrom(r.Context())
	if tr != nil {
		tr.DecodeNs = time.Since(decodeStart).Nanoseconds()
		tr.Alg = string(spec.opt.Algorithm)
		if tr.Alg == "" {
			tr.Alg = string(paremsp.AlgPAREMSP)
		}
		tr.Pixels = int64(sh.width) * int64(sh.height) * int64(sh.depth)
	}
	ctx, cancel := h.labelCtx(r)
	defer cancel()
	out := h.engine.do(ctx, t)
	if out.err != nil {
		h.writeEngineError(w, out.err)
		return
	}
	defer h.engine.release(out)

	resp := volumeResponse{
		Width: sh.width, Height: sh.height, Depth: sh.depth,
		NumComponents: out.vres.NumComponents,
	}
	if spec.components {
		resp.ComponentSizes = paremsp.VolumeComponentSizes(out.vres.Labels, out.vres.NumComponents)
	}
	w.Header().Set("Content-Type", ctJSON)
	json.NewEncoder(w).Encode(resp)
}

// statsResponseFrom builds the JSON body for a streaming-stats result; it
// is shared by /v1/stats and the async job result endpoint.
func statsResponseFrom(res *band.Result, bandRows int) statsResponse {
	resp := statsResponse{
		Width:         res.Width,
		Height:        res.Height,
		NumComponents: res.NumComponents,
		BandRows:      bandRows,
		Components:    make([]componentJSON, len(res.Components)),
	}
	if resp.BandRows == 0 {
		resp.BandRows = band.DefaultBandRows
	}
	if px := int64(res.Width) * int64(res.Height); px > 0 {
		resp.Density = float64(res.ForegroundPixels) / float64(px)
	}
	for i, c := range res.Components {
		resp.Components[i] = componentJSON{
			Label:    c.Label,
			Area:     int(c.Area),
			BBox:     [4]int{c.MinX, c.MinY, c.MaxX, c.MaxY},
			Centroid: [2]float64{c.CentroidX, c.CentroidY},
			Runs:     c.Runs,
		}
	}
	return resp
}

// shape is what the handler keeps of a decoded input: the engine consumes
// the pooled raster (it may return it to the pool after a cancellation
// while a worker still reads it), so these facts are captured before any
// engine call.
type shape struct {
	width, height, depth int
	density              float64
}

// unsupportedMedia is a body in a format the service does not speak (415).
type unsupportedMedia struct{ error }

// decodeTask decodes one request body into a pooled input and returns the
// engine task that labels it, with the input's shape. It is the one place
// an input kind is chosen, shared by the synchronous endpoints and the
// async job path. The workload kind picks the labeler family, spec.mode
// the raster kind of the 2-D ones:
//   - stats streams the body through the band reader on the worker (only
//     the header is read here);
//   - volume decodes a stack of P5 frames into a voxel volume;
//   - the gray modes decode PGM or PNG into a gray raster;
//   - binary mode decodes PBM, PGM or PNG (ct, or sniffed) into a packed
//     bitmap, binarized at spec.level: P4 rows are already 1 bit per pixel,
//     every other body is thresholded straight into the packed words. Only
//     a byte-raster algorithm unpacks it into an Image. With wantLabels
//     unset a bit-packed task folds the statistics (spec.components) from
//     the runs and writes no label map.
//
// Every endpoint checks the header first (PNM, or a PNG's IHDR; a volume's
// first frame): one declaring more pixels than the body cap, or a body of
// known size (>= 0), can carry fails before anything is allocated. On error
// the borrowed input is already back in its pool.
func (h *Handler) decodeTask(kind jobs.Kind, spec requestSpec, ct string, body *bufio.Reader, size int64, wantLabels bool) (task, shape, error) {
	e := h.engine
	bkind := "pnm"
	if kind != jobs.KindStats && kind != jobs.KindVolume {
		var err error
		if bkind, err = bodyKind(ct, body); err != nil {
			return task{}, shape{}, unsupportedMedia{err}
		}
		if faultinject.Fire(faultinject.DecodeError) {
			return task{}, shape{}, errors.New("faultinject: decode-error")
		}
	}
	if err := h.checkHeader(body, size); err != nil {
		return task{}, shape{}, err
	}
	isPNG := bkind == "png"
	switch {
	case kind == jobs.KindStats:
		src, err := pnm.NewBandReader(body, spec.level)
		if err != nil {
			return task{}, shape{}, err
		}
		return e.streamTask(src, band.Options{BandRows: spec.bandRows}), shape{width: src.Width(), height: src.Height()}, nil
	case kind == jobs.KindVolume:
		vol := e.volumes.get()
		if err := pnm.DecodeVolumeInto(body, spec.level, vol); err != nil {
			e.volumes.put(vol)
			return task{}, shape{}, err
		}
		sh := shape{width: vol.W, height: vol.H, depth: vol.D}
		if len(vol.Vox) > 0 {
			sh.density = float64(vol.ForegroundCount()) / float64(len(vol.Vox))
		}
		return e.volumeTask(vol, spec.opt), sh, nil
	case spec.mode == paremsp.ModeGray || spec.mode == paremsp.ModeGrayDelta:
		g := e.grays.get()
		decode := pnm.DecodeGrayInto
		if isPNG {
			decode = pnm.DecodePNGGrayInto
		}
		if err := decode(body, g); err != nil {
			e.grays.put(g)
			return task{}, shape{}, err
		}
		// Gray labeling has no background: every pixel belongs to a
		// component, so the foreground density is definitionally 1.
		return e.grayTask(g, spec.opt), shape{width: g.Width, height: g.Height, density: 1}, nil
	}

	bm := e.bitmaps.get()
	decode := pnm.DecodeBitmapInto
	if isPNG {
		decode = pnm.DecodePNGBitmapInto
	}
	if err := decode(body, spec.level, bm); err != nil {
		e.bitmaps.put(bm)
		return task{}, shape{}, err
	}
	sh := shape{width: bm.Width, height: bm.Height, density: bm.Density()}
	switch {
	case !bitPackedAlg(spec.opt.Algorithm):
		img := e.images.get()
		bm.ToImageInto(img)
		e.bitmaps.put(bm)
		return e.imageTask(img, spec.opt), sh, nil
	case !wantLabels:
		return e.bitmapStatsTask(bm, spec.opt, spec.components), sh, nil
	}
	return e.bitmapTask(bm, spec.opt), sh, nil
}

// payloadTooLarge reports an image header whose declared pixels need more body
// bytes than the body cap allows (413).
type payloadTooLarge struct {
	hdr         pnm.Header
	need, limit int64
}

func (e *payloadTooLarge) Error() string {
	return fmt.Sprintf("%s header declares a %dx%d image needing %d body bytes, over the %d-byte cap",
		e.hdr.Magic, e.hdr.Width, e.hdr.Height, e.need, e.limit)
}

// bodyLen is the request's declared body length, or -1 when unknown.
func bodyLen(r *http.Request) int64 {
	if r.ContentLength > 0 {
		return r.ContentLength
	}
	return -1
}

// checkHeader reads the image header at the front of body without
// consuming it and checks the pixel payload it declares before any decoder
// sizes a raster from it: over the body cap is a 413, and more than a body
// of known length (size >= 0) carries is a truncated body, a 400. A PNG is
// compressed, so only the cap applies to it, as the pixels of a P4 body.
func (h *Handler) checkHeader(body *bufio.Reader, size int64) error {
	hdr, err := pnm.PeekHeader(body)
	if err != nil {
		return err
	}
	need := hdr.PayloadBytes()
	switch {
	case need > h.maxBytes:
		return &payloadTooLarge{hdr: hdr, need: need, limit: h.maxBytes}
	case size >= 0 && need > size && hdr.Magic != "PNG":
		return fmt.Errorf("pnm: %s header declares a %dx%d image needing %d body bytes, but the body holds %d",
			hdr.Magic, hdr.Width, hdr.Height, need, size)
	}
	return nil
}

// decodeError writes the HTTP failure for a request-body decode error:
// 413 when the body ran over the size cap or its header declared more
// pixels than the cap can carry, 415 for a format the service does not
// speak, 400 otherwise.
func (h *Handler) decodeError(w http.ResponseWriter, err error) {
	var (
		tooBig  *http.MaxBytesError
		tooMany *payloadTooLarge
		media   unsupportedMedia
	)
	switch {
	case errors.As(err, &media):
		writeError(w, http.StatusUnsupportedMediaType, codeUnsupportedMedia, err.Error())
		return
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, codePayloadTooLarge,
			fmt.Sprintf("image exceeds %d bytes", tooBig.Limit))
		return
	case errors.As(err, &tooMany):
		writeError(w, http.StatusRequestEntityTooLarge, codePayloadTooLarge, tooMany.Error())
		return
	}
	writeError(w, http.StatusBadRequest, codeInvalidArgument, err.Error())
}

// bitPackedAlg reports whether alg consumes a packed bitmap natively.
func bitPackedAlg(alg paremsp.Algorithm) bool {
	return alg == paremsp.AlgBREMSP || alg == paremsp.AlgPBREMSP
}

// bodyKind resolves the request body codec ("pnm" or "png") from the
// Content-Type, falling back to magic-number sniffing for an absent or
// generic type.
func bodyKind(contentType string, body *bufio.Reader) (string, error) {
	ct := contentType
	if ct != "" {
		if parsed, _, err := mime.ParseMediaType(ct); err == nil {
			ct = parsed
		}
	}
	switch ct {
	case ctPBM, ctPGM, ctPNM:
		return "pnm", nil
	case ctPNG:
		return "png", nil
	case "", "application/octet-stream", "application/x-www-form-urlencoded":
		// The last is curl's --data-binary default; nobody posts real form
		// data here, so sniff it like an untyped upload.
		magic, err := body.Peek(2)
		if err != nil {
			return "", fmt.Errorf("cannot sniff image format: %v", err)
		}
		if magic[0] == 0x89 {
			return "png", nil
		}
		if magic[0] == 'P' && magic[1] >= '1' && magic[1] <= '5' {
			return "pnm", nil
		}
		return "", fmt.Errorf("unrecognized image format (magic %q)", magic)
	default:
		return "", fmt.Errorf("unsupported Content-Type %q (want %s, %s or %s)", contentType, ctPBM, ctPGM, ctPNG)
	}
}

// negotiateAccept picks the response format from an Accept header: the first
// supported media range wins, an empty header (or */*) selects JSON, and a
// header offering nothing the service speaks reports !ok (406).
func negotiateAccept(header string) (string, bool) {
	if strings.TrimSpace(header) == "" {
		return ctJSON, true
	}
	for _, part := range strings.Split(header, ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		switch mt {
		case ctJSON, "application/*", "*/*":
			return ctJSON, true
		case ctPGM, ctPNM:
			return ctPGM, true
		case ctPNG, "image/*":
			return ctPNG, true
		case ctCCL:
			return ctCCL, true
		}
	}
	return "", false
}
