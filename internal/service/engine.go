package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	paremsp "repro"
	"repro/internal/band"
	"repro/internal/core"
	"repro/internal/faultinject"
)

// Typed engine errors. The HTTP layer maps ErrQueueFull to 429 and ErrClosed
// to 503; library callers can match them with errors.Is.
var (
	// ErrQueueFull reports that the engine's queue held QueueDepth pending
	// requests already and the new one was rejected (backpressure).
	ErrQueueFull = errors.New("service: request queue full")
	// ErrClosed reports a Label call after Close.
	ErrClosed = errors.New("service: engine closed")
	// ErrWorkerPanic reports that the labeling panicked on the worker. The
	// panic is contained to the one job (the worker survives, the panicking
	// job's pooled buffers are quarantined) and surfaces as a wrapped
	// ErrWorkerPanic — the HTTP layer maps it to 500.
	ErrWorkerPanic = errors.New("service: worker panicked")
)

// Config sizes an Engine.
type Config struct {
	// Workers is the number of labeling goroutines (the in-flight bound).
	// 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth is how many requests may wait beyond the in-flight ones
	// before Label rejects with ErrQueueFull. 0 selects 2*Workers.
	QueueDepth int
	// Threads is the default thread count of the parallel labelers
	// (PBREMSP, PAREMSP, gray, volume) per request when the request does
	// not pin its own. 0 selects GOMAXPROCS/Workers (at least 1), so a
	// fully busy pool does not oversubscribe the CPUs.
	Threads int
	// OnPanic, when non-nil, observes every worker panic with the recovered
	// value and the panicking goroutine's stack (the HTTP layer logs them).
	// It runs on the worker goroutine; keep it fast and non-panicking.
	OnPanic func(v any, stack []byte)
}

// Engine runs labelings on a bounded worker pool. Create one with NewEngine;
// the zero value is not usable.
type Engine struct {
	workers    int
	queueDepth int
	threads    int
	queue      chan *job
	wg         sync.WaitGroup
	metrics    metrics

	mu     sync.RWMutex // guards closed vs. queue sends
	closed bool

	// draining makes workers reject still-queued jobs with context.Canceled
	// so a drain only waits for jobs that had already started.
	draining atomic.Bool

	// onPanic is Config.OnPanic (may be nil).
	onPanic func(v any, stack []byte)

	imgPool  sync.Pool // *paremsp.Image
	bmPool   sync.Pool // *paremsp.Bitmap
	lmPool   sync.Pool // *paremsp.LabelMap
	scPool   sync.Pool // *paremsp.Scratch
	grayPool sync.Pool // *paremsp.GrayImage
	volPool  sync.Pool // *paremsp.Volume
	lvPool   sync.Pool // *paremsp.LabelVolumeMap

	// run performs one labeling; tests substitute it to control timing. The
	// context is the request's: the labeling polls it between row blocks and
	// returns its error when canceled.
	run func(ctx context.Context, img *paremsp.Image, dst *paremsp.LabelMap, sc *paremsp.Scratch, opt paremsp.Options) (*paremsp.Result, error)
	// runBM is run for bit-packed jobs (LabelBitmap requests).
	runBM func(ctx context.Context, bm *paremsp.Bitmap, dst *paremsp.LabelMap, sc *paremsp.Scratch, opt paremsp.Options) (*paremsp.Result, error)
	// runStats is run for label-map-free bit-packed jobs (LabelBitmapStats
	// requests).
	runStats func(ctx context.Context, bm *paremsp.Bitmap, sc *paremsp.Scratch, opt paremsp.Options, comps bool) (*paremsp.Result, []paremsp.Component, error)
	// runGray is run for gray-level jobs (modes gray and gray-delta).
	runGray func(ctx context.Context, img *paremsp.GrayImage, dst *paremsp.LabelMap, sc *paremsp.Scratch, opt paremsp.Options) (*paremsp.Result, error)
	// runVol is run for volumetric jobs (mode volume).
	runVol func(ctx context.Context, vol *paremsp.Volume, dst *paremsp.LabelVolumeMap, sc *paremsp.Scratch, opt paremsp.Options) (*paremsp.VolumeResult, error)
}

// job carries one request; exactly one of img, bm, gray, vol and stream is
// non-nil. stream jobs run the out-of-core band labeler on the worker (the
// thunk reads the request body itself), so they obey the same in-flight
// bound and queue backpressure as raster labelings.
type job struct {
	ctx    context.Context
	img    *paremsp.Image
	bm     *paremsp.Bitmap
	gray   *paremsp.GrayImage
	vol    *paremsp.Volume
	stream func() (*band.Result, error)
	opt    paremsp.Options
	// noRaster marks a bm job that wants no label map: only the count and,
	// when comps is set, the per-component statistics.
	noRaster, comps bool
	done            chan jobResult
	// enqueued is when the job was admitted to the queue; the worker's
	// dequeue time minus this is the queue wait.
	enqueued time.Time
	// onStart, when non-nil, is called by the worker that dequeues the job
	// just before it starts computing (the async job API uses it to flip
	// queued → running).
	onStart func()
}

type jobResult struct {
	res   *paremsp.Result
	comps []paremsp.Component // noRaster jobs with comps set
	bres  *band.Result
	vres  *paremsp.VolumeResult
	err   error
	// wait is the time the job sat in the queue before a worker picked it
	// up. It rides the result channel back so the HTTP layer can fill the
	// request trace from its own goroutine — the worker never touches a
	// Trace, which keeps pooled trace records race-free under cancellation.
	wait time.Duration
}

// NewEngine starts a worker pool per cfg. Callers must Close it to stop the
// workers.
func NewEngine(cfg Config) *Engine {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 2 * workers
	}
	threads := cfg.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0) / workers
		if threads < 1 {
			threads = 1
		}
	}
	e := &Engine{
		workers:    workers,
		queueDepth: depth,
		threads:    threads,
		queue:      make(chan *job, depth),
		onPanic:    cfg.OnPanic,
		run:        paremsp.LabelIntoCtx,
		runBM:      paremsp.LabelBitmapIntoCtx,
		runStats:   labelBitmapStats,
		runGray:    paremsp.LabelGrayIntoCtx,
		runVol:     paremsp.LabelVolumeIntoCtx,
	}
	// Pool miss accounting lives in the New closures: a pool Get that finds
	// nothing to reuse is exactly one New call, so gets − misses = hits.
	e.imgPool.New = func() any { e.metrics.poolMisses[poolImage].Add(1); return &paremsp.Image{} }
	e.bmPool.New = func() any { e.metrics.poolMisses[poolBitmap].Add(1); return &paremsp.Bitmap{} }
	e.lmPool.New = func() any { e.metrics.poolMisses[poolLabelMap].Add(1); return &paremsp.LabelMap{} }
	e.scPool.New = func() any { e.metrics.poolMisses[poolScratch].Add(1); return &paremsp.Scratch{} }
	e.grayPool.New = func() any { e.metrics.poolMisses[poolGray].Add(1); return &paremsp.GrayImage{} }
	e.volPool.New = func() any { e.metrics.poolMisses[poolVolume].Add(1); return &paremsp.Volume{} }
	e.lvPool.New = func() any { e.metrics.poolMisses[poolLabelVol].Add(1); return &paremsp.LabelVolumeMap{} }
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go e.worker()
	}
	return e
}

// Workers returns the size of the worker pool.
func (e *Engine) Workers() int { return e.workers }

// QueueDepth returns the queue capacity beyond in-flight requests.
func (e *Engine) QueueDepth() int { return e.queueDepth }

// GetImage borrows a binary image from the raster pool; decode into it with
// the DecodeInto helpers and hand it to Label, which consumes it. If the
// image never reaches Label (e.g. decoding failed), return it with PutImage.
func (e *Engine) GetImage() *paremsp.Image {
	e.metrics.poolGets[poolImage].Add(1)
	return e.imgPool.Get().(*paremsp.Image)
}

// PutImage returns a borrowed image to the raster pool.
func (e *Engine) PutImage(img *paremsp.Image) {
	if img != nil {
		e.imgPool.Put(img)
	}
}

// GetBitmap borrows a bit-packed raster from the bitmap pool; decode raw PNM
// into it with pnm.DecodeBitmapInto and hand it to LabelBitmap or
// LabelBitmapStats, which consume it. If the bitmap never reaches LabelBitmap (e.g. decoding
// failed), return it with PutBitmap.
func (e *Engine) GetBitmap() *paremsp.Bitmap {
	e.metrics.poolGets[poolBitmap].Add(1)
	return e.bmPool.Get().(*paremsp.Bitmap)
}

// PutBitmap returns a borrowed bitmap to the bitmap pool.
func (e *Engine) PutBitmap(bm *paremsp.Bitmap) {
	if bm != nil {
		e.bmPool.Put(bm)
	}
}

// PutResult returns a Label result's label map to the raster pool. Call it
// after the response has been written; the result must not be used afterward.
func (e *Engine) PutResult(res *paremsp.Result) {
	if res != nil && res.Labels != nil {
		e.lmPool.Put(res.Labels)
		res.Labels = nil
	}
}

// GetGray borrows a gray raster from the gray pool; decode into it with
// pnm.DecodeGrayInto and hand it to LabelGray, which consumes it. If it
// never reaches LabelGray, return it with PutGray.
func (e *Engine) GetGray() *paremsp.GrayImage {
	e.metrics.poolGets[poolGray].Add(1)
	return e.grayPool.Get().(*paremsp.GrayImage)
}

// PutGray returns a borrowed gray raster to the gray pool.
func (e *Engine) PutGray(img *paremsp.GrayImage) {
	if img != nil {
		e.grayPool.Put(img)
	}
}

// GetVolume borrows a voxel volume from the volume pool; decode into it with
// pnm.DecodeVolumeInto and hand it to LabelVolume, which consumes it. If it
// never reaches LabelVolume, return it with PutVolume.
func (e *Engine) GetVolume() *paremsp.Volume {
	e.metrics.poolGets[poolVolume].Add(1)
	return e.volPool.Get().(*paremsp.Volume)
}

// PutVolume returns a borrowed volume to the volume pool.
func (e *Engine) PutVolume(vol *paremsp.Volume) {
	if vol != nil {
		e.volPool.Put(vol)
	}
}

// PutVolumeResult returns a LabelVolume result's label volume to its pool.
func (e *Engine) PutVolumeResult(res *paremsp.VolumeResult) {
	if res != nil && res.Labels != nil {
		e.lvPool.Put(res.Labels)
		res.Labels = nil
	}
}

// Label labels img with the engine's worker pool and per-request options,
// blocking until the labeling completes, ctx is done, or the request is
// rejected. Backpressure: if Workers labelings are in flight and QueueDepth
// more are queued, it fails immediately with ErrQueueFull.
//
// Label consumes img: on every path (success, rejection, cancellation) the
// engine returns it to the raster pool, possibly after Label itself has
// returned — so the caller must not touch img afterward; read any per-image
// facts (dimensions, density) before calling. The returned result's label
// map is pool-owned; release it with PutResult.
func (e *Engine) Label(ctx context.Context, img *paremsp.Image, opt paremsp.Options) (*paremsp.Result, error) {
	r := e.submit(&job{ctx: ctx, img: img, opt: opt, done: make(chan jobResult, 1)})
	return r.res, r.err
}

// LabelBitmap is Label for a bit-packed raster (algorithms AlgBREMSP /
// AlgPBREMSP, see paremsp.LabelBitmapInto). It consumes bm under the same
// contract Label applies to img: on every path the engine returns it to the
// bitmap pool, so read any per-raster facts before calling.
func (e *Engine) LabelBitmap(ctx context.Context, bm *paremsp.Bitmap, opt paremsp.Options) (*paremsp.Result, error) {
	r := e.submit(&job{ctx: ctx, bm: bm, opt: opt, done: make(chan jobResult, 1)})
	return r.res, r.err
}

// LabelBitmapStats is LabelBitmap for a caller that wants no label map: the
// bit-packed labeler's final pass folds every run into per-component
// statistics instead of writing a raster, so no label map is taken from
// the pool and the result's Labels is nil. It returns the component count
// and phase times in the result and, when comps is set, the per-component
// statistics — exactly paremsp.ComponentsOf over LabelBitmap's label map.
// With comps unset the fold is skipped. bm is consumed as by LabelBitmap.
func (e *Engine) LabelBitmapStats(ctx context.Context, bm *paremsp.Bitmap, opt paremsp.Options, comps bool) (*paremsp.Result, []paremsp.Component, error) {
	r := e.submit(&job{ctx: ctx, bm: bm, opt: opt, noRaster: true, comps: comps, done: make(chan jobResult, 1)})
	return r.res, r.comps, r.err
}

// labelBitmapStats is the runStats seam: the label-map-free entry points of
// the bit-packed labelers, validated like paremsp.LabelBitmapIntoCtx.
func labelBitmapStats(ctx context.Context, bm *paremsp.Bitmap, sc *paremsp.Scratch, opt paremsp.Options, comps bool) (*paremsp.Result, []paremsp.Component, error) {
	if opt.Mode != "" && opt.Mode != paremsp.ModeBinary {
		return nil, nil, fmt.Errorf("paremsp: LabelBitmapIntoCtx supports mode %q, got %q", paremsp.ModeBinary, opt.Mode)
	}
	alg := opt.Algorithm
	if alg == "" {
		alg = paremsp.AlgPBREMSP
	}
	if opt.Connectivity != 0 && opt.Connectivity != 8 {
		return nil, nil, fmt.Errorf("paremsp: algorithm %q supports only 8-connectivity", alg)
	}
	f := core.PBREMSPStats
	switch alg {
	case paremsp.AlgPBREMSP:
	case paremsp.AlgBREMSP:
		f = core.BREMSPStats
	default:
		return nil, nil, fmt.Errorf("paremsp: algorithm %q cannot label a packed bitmap (want %q or %q)",
			alg, paremsp.AlgBREMSP, paremsp.AlgPBREMSP)
	}
	copt := core.Options{Threads: opt.Threads}
	if opt.UseCASMerger {
		copt.Merger = core.MergerCAS
	}
	n, cs, phases, err := f(ctx, bm, sc, copt, comps)
	if err != nil {
		return nil, nil, err
	}
	return &paremsp.Result{NumComponents: n, Phases: phases}, cs, nil
}

// LabelGray is Label for a gray raster (modes gray and gray-delta, see
// paremsp.LabelGrayIntoCtx). It consumes img under the same contract Label
// applies to its raster: on every path the engine returns it to the gray
// pool, so read any per-image facts before calling.
func (e *Engine) LabelGray(ctx context.Context, img *paremsp.GrayImage, opt paremsp.Options) (*paremsp.Result, error) {
	r := e.submit(&job{ctx: ctx, gray: img, opt: opt, done: make(chan jobResult, 1)})
	return r.res, r.err
}

// LabelVolume is Label for a binary voxel volume (mode volume, see
// paremsp.LabelVolumeIntoCtx); it consumes vol under the raster contract.
// The returned result's label volume is pool-owned; release it with
// PutVolumeResult.
func (e *Engine) LabelVolume(ctx context.Context, vol *paremsp.Volume, opt paremsp.Options) (*paremsp.VolumeResult, error) {
	r := e.submit(&job{ctx: ctx, vol: vol, opt: opt, done: make(chan jobResult, 1)})
	return r.vres, r.err
}

// Stats streams src through the out-of-core band labeler on the worker pool
// and returns its component statistics. Unlike Label there is no raster to
// pool: src is read incrementally on the worker goroutine, so the caller
// must keep the underlying reader open until Stats returns — and Stats
// always waits for the worker even when ctx fires, so an HTTP handler can
// safely hand it a request body (the body is never touched after the
// handler returns). A canceled job that is still queued is rejected by the
// worker without reading src; one already streaming finishes early when
// cancellation makes the source's reads fail. Backpressure (ErrQueueFull)
// and Close (ErrClosed) behave as for Label. Note the pool implication:
// a stream job occupies its worker for as long as the source delivers
// bands, so slow uploads hold labeling capacity — deployments should bound
// request read time (server timeouts) alongside MaxImageBytes.
func (e *Engine) Stats(ctx context.Context, src band.Source, opt band.Options) (*band.Result, error) {
	j := &job{
		ctx:    ctx,
		stream: func() (*band.Result, error) { return band.Stream(src, opt) },
		done:   make(chan jobResult, 1),
	}
	r := e.submit(j)
	return r.bres, r.err
}

// Submitted is a labeling admitted to the queue by one of the Submit
// methods: the request sits in the engine queue (or on a worker) and its
// outcome arrives via Wait. The async job API builds on this path.
type Submitted struct {
	pos  int
	done chan jobResult
}

// QueuePosition reports approximately how many requests sat in the engine
// queue — including this one — at the moment the job was admitted. It is a
// point-in-time observation, not a live position.
func (s *Submitted) QueuePosition() int { return s.pos }

// Wait blocks until the job finishes. Exactly one of the results is non-nil
// on success: the raster result for SubmitLabel/SubmitBitmap/SubmitGray,
// the streaming result for SubmitStats, the volume result for SubmitVolume.
// Wait must be called exactly once.
func (s *Submitted) Wait() (*paremsp.Result, *band.Result, *paremsp.VolumeResult, error) {
	r := <-s.done
	return r.res, r.bres, r.vres, r.err
}

// SubmitLabel is the asynchronous form of Label: it admits img to the queue
// and returns immediately with the job's queue position; the caller
// collects the outcome with Wait. onStart, when non-nil, runs on the worker
// just before the labeling starts. The img consumption contract matches
// Label. Backpressure is unchanged: a full queue rejects with ErrQueueFull
// at submit time.
func (e *Engine) SubmitLabel(ctx context.Context, img *paremsp.Image, opt paremsp.Options, onStart func()) (*Submitted, error) {
	j := &job{ctx: ctx, img: img, opt: opt, onStart: onStart, done: make(chan jobResult, 1)}
	pos, err := e.enqueue(j)
	if err != nil {
		return nil, err
	}
	return &Submitted{pos: pos, done: j.done}, nil
}

// SubmitBitmap is SubmitLabel for a bit-packed raster (see LabelBitmap).
func (e *Engine) SubmitBitmap(ctx context.Context, bm *paremsp.Bitmap, opt paremsp.Options, onStart func()) (*Submitted, error) {
	j := &job{ctx: ctx, bm: bm, opt: opt, onStart: onStart, done: make(chan jobResult, 1)}
	pos, err := e.enqueue(j)
	if err != nil {
		return nil, err
	}
	return &Submitted{pos: pos, done: j.done}, nil
}

// SubmitGray is SubmitLabel for a gray raster (see LabelGray).
func (e *Engine) SubmitGray(ctx context.Context, img *paremsp.GrayImage, opt paremsp.Options, onStart func()) (*Submitted, error) {
	j := &job{ctx: ctx, gray: img, opt: opt, onStart: onStart, done: make(chan jobResult, 1)}
	pos, err := e.enqueue(j)
	if err != nil {
		return nil, err
	}
	return &Submitted{pos: pos, done: j.done}, nil
}

// SubmitVolume is SubmitLabel for a voxel volume (see LabelVolume).
func (e *Engine) SubmitVolume(ctx context.Context, vol *paremsp.Volume, opt paremsp.Options, onStart func()) (*Submitted, error) {
	j := &job{ctx: ctx, vol: vol, opt: opt, onStart: onStart, done: make(chan jobResult, 1)}
	pos, err := e.enqueue(j)
	if err != nil {
		return nil, err
	}
	return &Submitted{pos: pos, done: j.done}, nil
}

// SubmitStats is the asynchronous form of Stats. Unlike Stats, the source
// must stay readable until Wait returns — async callers hand it an
// in-memory buffer, not a request body.
func (e *Engine) SubmitStats(ctx context.Context, src band.Source, opt band.Options, onStart func()) (*Submitted, error) {
	j := &job{
		ctx:     ctx,
		stream:  func() (*band.Result, error) { return band.Stream(src, opt) },
		onStart: onStart,
		done:    make(chan jobResult, 1),
	}
	pos, err := e.enqueue(j)
	if err != nil {
		return nil, err
	}
	return &Submitted{pos: pos, done: j.done}, nil
}

// RetryAfter estimates how long a client shed with ErrQueueFull should wait
// before retrying: the expected time for the current backlog (queued plus
// in-flight requests) to drain through the pool at the observed mean
// per-job latency, clamped to [1s, 60s]. The mean covers raster labelings
// only — stream jobs run at the client's upload pace, and a few slow
// uploads would otherwise inflate every backoff hint to the cap. Before
// any raster job has completed the estimate is the 1-second floor.
func (e *Engine) RetryAfter() time.Duration {
	done := e.metrics.jobsTimed.Load()
	if done == 0 {
		return time.Second
	}
	mean := time.Duration(e.metrics.jobNs.Load() / done)
	backlog := int64(len(e.queue)) + e.metrics.inFlight.Load()
	est := mean * time.Duration(backlog+1) / time.Duration(e.workers)
	if est < time.Second {
		return time.Second
	}
	if est > time.Minute {
		return time.Minute
	}
	return est
}

// reclaimInput returns the job's raster (whichever kind it carries, if any)
// to its pool.
func (e *Engine) reclaimInput(j *job) {
	switch {
	case j.img != nil:
		e.imgPool.Put(j.img)
	case j.bm != nil:
		e.bmPool.Put(j.bm)
	case j.gray != nil:
		e.grayPool.Put(j.gray)
	case j.vol != nil:
		e.volPool.Put(j.vol)
	}
}

// enqueue admits j to the queue and returns its approximate queue position
// (the queue length just after insertion, so including the job itself). It
// is the shared front half of the synchronous and asynchronous submit
// paths; on rejection the input raster is reclaimed.
func (e *Engine) enqueue(j *job) (int, error) {
	e.metrics.requests.Add(1)
	if faultinject.Fire(faultinject.QueueFull) {
		e.metrics.rejected.Add(1)
		e.reclaimInput(j)
		return 0, ErrQueueFull
	}
	if j.opt.Threads == 0 {
		j.opt.Threads = e.threads
	}
	j.enqueued = time.Now()

	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		e.metrics.rejected.Add(1)
		e.reclaimInput(j)
		return 0, ErrClosed
	}
	select {
	case e.queue <- j:
		pos := len(e.queue)
		e.mu.RUnlock()
		return pos, nil
	default:
		e.mu.RUnlock()
		e.metrics.rejected.Add(1)
		e.reclaimInput(j)
		return 0, ErrQueueFull
	}
}

func (e *Engine) submit(j *job) jobResult {
	if _, err := e.enqueue(j); err != nil {
		return jobResult{err: err}
	}
	ctx := j.ctx

	// Stream jobs read their source (an HTTP request body) on the worker, so
	// returning before the worker finishes would let the engine touch the
	// body after the handler has returned. Wait unconditionally: a queued
	// job with a dead ctx is rejected by the worker's precheck, and a
	// running one stops at the first failed read.
	if j.stream != nil {
		r := <-j.done
		if tr := traceFrom(ctx); tr != nil {
			tr.QueueNs = r.wait.Nanoseconds()
		}
		return r
	}

	// Once enqueued, the worker owns the raster and returns it to its pool.
	select {
	case r := <-j.done:
		// The channel receive orders the worker's writes before this
		// caller-side trace fill; on the cancellation path below the trace
		// is left untouched, so a worker finishing late never races the
		// (pooled, recycled) record.
		if tr := traceFrom(ctx); tr != nil {
			tr.QueueNs = r.wait.Nanoseconds()
		}
		return r
	case <-ctx.Done():
		e.metrics.canceled.Add(1)
		// The worker may still pick the job up (and is the one holding the
		// raster); reclaim the label map when it finishes so the pool stays
		// warm.
		go func() {
			r := <-j.done
			if r.res != nil {
				e.PutResult(r.res)
			}
			if r.vres != nil {
				e.PutVolumeResult(r.vres)
			}
		}()
		return jobResult{err: ctx.Err()}
	}
}

// Close stops accepting work and waits for in-flight and queued labelings to
// drain. Subsequent Label calls return ErrClosed; Close is idempotent and
// always waits for the workers, so calling it after a timed-out Drain (whose
// stragglers the caller has since canceled) picks up the remaining exits.
func (e *Engine) Close() {
	e.closeQueue()
	e.wg.Wait()
}

// closeQueue marks the engine closed and closes the queue channel exactly
// once; subsequent submissions fail with ErrClosed.
func (e *Engine) closeQueue() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()
}

// Drain shuts the engine down gracefully: admission stops (new submissions
// fail with ErrClosed), jobs still sitting in the queue are rejected with
// context.Canceled without running, and jobs already on a worker run to
// completion. It reports whether every worker exited within timeout; on
// false the caller should cancel the jobs' base context and then Close,
// which waits for the now-canceled stragglers.
func (e *Engine) Drain(timeout time.Duration) bool {
	e.draining.Store(true)
	e.closeQueue()
	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Draining reports whether Drain has begun.
func (e *Engine) Draining() bool { return e.draining.Load() }

// recoverPanic converts a panic on the calling goroutine into a wrapped
// ErrWorkerPanic in *errp, counts it, and reports it to OnPanic with the
// stack. It must be the direct deferred function of the compute it guards.
func (e *Engine) recoverPanic(errp *error) {
	v := recover()
	if v == nil {
		return
	}
	stack := debug.Stack()
	e.metrics.panics.Add(1)
	if e.onPanic != nil {
		e.onPanic(v, stack)
	}
	*errp = fmt.Errorf("%w: %v", ErrWorkerPanic, v)
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first. Used by
// the worker-stall failpoint so an injected stall still honors cancellation.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// injectWorkerFaults runs the worker-stall and worker-panic failpoints. The
// panic deliberately escapes into the compute helpers' recoverPanic so the
// chaos suite exercises the same containment path a real panic takes.
func injectWorkerFaults(ctx context.Context) {
	if !faultinject.Armed() {
		return
	}
	if d := faultinject.Delay(faultinject.WorkerStall); d > 0 {
		sleepCtx(ctx, d)
	}
	if faultinject.Fire(faultinject.WorkerPanic) {
		panic("faultinject: worker-panic")
	}
}

// computeRaster runs one raster labeling with panic containment: a panic in
// the labeling (or an injected one) surfaces as a wrapped ErrWorkerPanic
// instead of killing the worker goroutine. lm is nil for noRaster jobs,
// whose statistics come back in comps.
func (e *Engine) computeRaster(j *job, lm *paremsp.LabelMap, sc *paremsp.Scratch) (res *paremsp.Result, comps []paremsp.Component, npix int, err error) {
	defer e.recoverPanic(&err)
	injectWorkerFaults(j.ctx)
	switch {
	case j.noRaster:
		npix = j.bm.Width * j.bm.Height
		res, comps, err = e.runStats(j.ctx, j.bm, sc, j.opt, j.comps)
	case j.img != nil:
		npix = len(j.img.Pix)
		res, err = e.run(j.ctx, j.img, lm, sc, j.opt)
	case j.gray != nil:
		npix = len(j.gray.Pix)
		res, err = e.runGray(j.ctx, j.gray, lm, sc, j.opt)
	default:
		npix = j.bm.Width * j.bm.Height
		res, err = e.runBM(j.ctx, j.bm, lm, sc, j.opt)
	}
	return res, comps, npix, err
}

// computeVolume is computeRaster for voxel-volume jobs.
func (e *Engine) computeVolume(j *job, lv *paremsp.LabelVolumeMap, sc *paremsp.Scratch) (vres *paremsp.VolumeResult, npix int, err error) {
	defer e.recoverPanic(&err)
	injectWorkerFaults(j.ctx)
	npix = len(j.vol.Vox)
	vres, err = e.runVol(j.ctx, j.vol, lv, sc, j.opt)
	return vres, npix, err
}

// computeStream is computeRaster for band-streaming jobs.
func (e *Engine) computeStream(j *job) (bres *band.Result, err error) {
	defer e.recoverPanic(&err)
	injectWorkerFaults(j.ctx)
	return j.stream()
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for j := range e.queue {
		if err := j.ctx.Err(); err != nil || e.draining.Load() {
			// Dead context or a drain in progress: reject without running.
			// Drain closes the queue first, so everything a worker still
			// sees here was queued before admission stopped.
			if err == nil {
				err = context.Canceled
			}
			e.metrics.errors.Add(1)
			e.reclaimInput(j)
			j.done <- jobResult{err: err}
			continue
		}
		e.metrics.inFlight.Add(1)
		if j.onStart != nil {
			j.onStart()
		}
		start := time.Now()
		wait := start.Sub(j.enqueued)
		e.metrics.queueWaitHist.observe(wait.Nanoseconds())
		if j.stream != nil {
			// Stream durations are dominated by how fast the client's
			// source delivers bands, not by compute, so they stay out of
			// the jobNs mean that RetryAfter is derived from (and out of
			// the service-time histogram, for the same reason). They do
			// count as busy time: the worker is occupied either way.
			bres, err := e.computeStream(j)
			e.metrics.busyNs.Add(time.Since(start).Nanoseconds())
			e.metrics.inFlight.Add(-1)
			if err != nil {
				e.metrics.errors.Add(1)
				j.done <- jobResult{err: err, wait: wait}
				continue
			}
			e.metrics.completed.Add(1)
			e.metrics.pixels.Add(int64(bres.Width) * int64(bres.Height))
			e.metrics.components.Add(int64(bres.NumComponents))
			j.done <- jobResult{bres: bres, wait: wait}
			continue
		}
		if j.vol != nil {
			// Volume jobs mirror the raster path with a 3-D label buffer and
			// no phase breakdown (the slab labeler does not time phases).
			e.metrics.poolGets[poolLabelVol].Add(1)
			lv := e.lvPool.Get().(*paremsp.LabelVolumeMap)
			e.metrics.poolGets[poolScratch].Add(1)
			sc := e.scPool.Get().(*paremsp.Scratch)
			vres, npix, err := e.computeVolume(j, lv, sc)
			panicked := errors.Is(err, ErrWorkerPanic)
			if !panicked {
				e.scPool.Put(sc)
				e.reclaimInput(j)
			}
			elapsed := time.Since(start).Nanoseconds()
			e.metrics.busyNs.Add(elapsed)
			e.metrics.inFlight.Add(-1)
			if err != nil {
				if !panicked {
					e.lvPool.Put(lv)
				}
				e.metrics.errors.Add(1)
				j.done <- jobResult{err: err, wait: wait}
				continue
			}
			e.metrics.completed.Add(1)
			e.metrics.jobNs.Add(elapsed)
			e.metrics.jobsTimed.Add(1)
			e.metrics.pixels.Add(int64(npix))
			e.metrics.components.Add(int64(vres.NumComponents))
			e.metrics.jobHist.observe(elapsed)
			j.done <- jobResult{vres: vres, wait: wait}
			continue
		}
		var lm *paremsp.LabelMap
		if !j.noRaster {
			e.metrics.poolGets[poolLabelMap].Add(1)
			lm = e.lmPool.Get().(*paremsp.LabelMap)
		}
		e.metrics.poolGets[poolScratch].Add(1)
		sc := e.scPool.Get().(*paremsp.Scratch)
		res, comps, npix, err := e.computeRaster(j, lm, sc)
		panicked := errors.Is(err, ErrWorkerPanic)
		if !panicked {
			// A panicking labeling may have left lm, sc and the input raster
			// mid-mutation; quarantine them (drop instead of pooling) so the
			// next request never sees a half-written buffer.
			e.scPool.Put(sc)
			e.reclaimInput(j)
		}
		elapsed := time.Since(start).Nanoseconds()
		e.metrics.busyNs.Add(elapsed)
		e.metrics.inFlight.Add(-1)
		if err != nil {
			if !panicked && lm != nil {
				e.lmPool.Put(lm)
			}
			e.metrics.errors.Add(1)
			j.done <- jobResult{err: err, wait: wait}
			continue
		}
		e.metrics.completed.Add(1)
		e.metrics.jobNs.Add(elapsed)
		e.metrics.jobsTimed.Add(1)
		e.metrics.pixels.Add(int64(npix))
		e.metrics.components.Add(int64(res.NumComponents))
		e.metrics.scanNs.Add(res.Phases.Scan.Nanoseconds())
		e.metrics.mergeNs.Add(res.Phases.Merge.Nanoseconds())
		e.metrics.flattenNs.Add(res.Phases.Flatten.Nanoseconds())
		e.metrics.relabelNs.Add(res.Phases.Relabel.Nanoseconds())
		// Histogram observes are two uncontended atomic adds each; the
		// six of them cost tens of nanoseconds against a job measured in
		// micro- to milliseconds, keeping hot-path overhead under the 2%
		// budget with nothing allocated.
		e.metrics.jobHist.observe(elapsed)
		e.metrics.phaseHist[phaseScan].observe(res.Phases.Scan.Nanoseconds())
		e.metrics.phaseHist[phaseMerge].observe(res.Phases.Merge.Nanoseconds())
		e.metrics.phaseHist[phaseFlatten].observe(res.Phases.Flatten.Nanoseconds())
		e.metrics.phaseHist[phaseRelabel].observe(res.Phases.Relabel.Nanoseconds())
		j.done <- jobResult{res: res, comps: comps, wait: wait}
	}
}
