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

	images    pool[paremsp.Image]
	bitmaps   pool[paremsp.Bitmap]
	labelMaps pool[paremsp.LabelMap]
	scratch   pool[paremsp.Scratch]
	grays     pool[paremsp.GrayImage]
	volumes   pool[paremsp.Volume]
	labelVols pool[paremsp.LabelVolumeMap]

	// hook, when non-nil, runs on the worker just before every task, under
	// the job's context; a non-nil error fails the job with it. Tests set
	// it to hold a worker, fail a job or panic in one.
	hook func(ctx context.Context) error
}

// pool is a typed sync.Pool that counts its gets, and the gets that had to
// allocate, into one pool label of ccserve_pool_{get,miss}_total: a get
// that finds nothing to reuse is exactly one New call, so gets − misses =
// hits.
type pool[T any] struct {
	p    sync.Pool
	gets *atomic.Int64
}

func (p *pool[T]) init(m *metrics, i int) {
	p.gets = &m.poolGets[i]
	p.p.New = func() any { m.poolMisses[i].Add(1); return new(T) }
}

func (p *pool[T]) get() *T {
	p.gets.Add(1)
	return p.p.Get().(*T)
}

func (p *pool[T]) put(v *T) {
	if v != nil {
		p.p.Put(v)
	}
}

// task is the work of one job. run executes it on the worker under the
// job's context: it borrows the output buffers it needs from the engine's
// pools and hands them, and the input, back once the labeler returns, so a
// panic unwinds past every put-back and nothing the labeling touched is
// re-pooled. put returns the input to its pool for a job rejected unrun.
type task struct {
	run func(ctx context.Context) jobResult
	put func()
	// stream marks a band-streaming task, which reads its source (an HTTP
	// request body, for /v1/stats) on the worker.
	stream bool
}

// job is one task admitted to the queue.
type job struct {
	ctx  context.Context
	task task
	done chan jobResult
	// pos is the queue length just after admission, this job included.
	pos int
	// enqueued is when the job was admitted to the queue; the worker's
	// dequeue time minus this is the queue wait.
	enqueued time.Time
	// onStart, when non-nil, is called by the worker that dequeues the job
	// just before it starts computing (the async job API uses it to flip
	// queued → running).
	onStart func()
}

// jobResult is a job's outcome: on success exactly one of res (raster
// tasks; comps too when the statistics were folded without a label map),
// bres (stream tasks) and vres (volume tasks) is set.
type jobResult struct {
	res   *paremsp.Result
	comps []paremsp.Component
	bres  *band.Result
	vres  *paremsp.VolumeResult
	err   error
	// pixels and components feed the engine's throughput counters.
	pixels     int64
	components int
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
	}
	e.images.init(&e.metrics, poolImage)
	e.bitmaps.init(&e.metrics, poolBitmap)
	e.labelMaps.init(&e.metrics, poolLabelMap)
	e.scratch.init(&e.metrics, poolScratch)
	e.grays.init(&e.metrics, poolGray)
	e.volumes.init(&e.metrics, poolVolume)
	e.labelVols.init(&e.metrics, poolLabelVol)
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
// the DecodeInto helpers and hand it to Label, which consumes it.
func (e *Engine) GetImage() *paremsp.Image { return e.images.get() }

// PutResult returns a Label result's label map to the raster pool. Call it
// after the response has been written; the result must not be used afterward.
func (e *Engine) PutResult(res *paremsp.Result) {
	if res != nil && res.Labels != nil {
		e.labelMaps.put(res.Labels)
		res.Labels = nil
	}
}

// release returns every pooled output buffer of r (a raster result's label
// map, a volume result's label volume) to its pool.
func (e *Engine) release(r jobResult) {
	e.PutResult(r.res)
	if r.vres != nil {
		e.labelVols.put(r.vres.Labels)
		r.vres.Labels = nil
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
	r := e.do(ctx, e.imageTask(img, opt))
	return r.res, r.err
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
	r := e.do(ctx, e.streamTask(src, opt))
	return r.bres, r.err
}

// withThreads fills the engine's default thread count into opt.
func (e *Engine) withThreads(opt paremsp.Options) paremsp.Options {
	if opt.Threads == 0 {
		opt.Threads = e.threads
	}
	return opt
}

// rasterTask is the task that labels src into a pooled label map with
// label and then returns src to in; npix is src's pixel count.
func rasterTask[T any](e *Engine, in *pool[T], src *T, npix int, opt paremsp.Options,
	label func(context.Context, *T, *paremsp.LabelMap, *paremsp.Scratch, paremsp.Options) (*paremsp.Result, error)) task {
	opt = e.withThreads(opt)
	return task{
		put: func() { in.put(src) },
		run: func(ctx context.Context) jobResult {
			lm, sc := e.labelMaps.get(), e.scratch.get()
			res, err := label(ctx, src, lm, sc, opt)
			e.scratch.put(sc)
			in.put(src)
			if err != nil {
				e.labelMaps.put(lm)
				return jobResult{err: err}
			}
			return jobResult{res: res, pixels: int64(npix), components: res.NumComponents}
		},
	}
}

// imageTask labels a byte raster (paremsp.LabelIntoCtx).
func (e *Engine) imageTask(img *paremsp.Image, opt paremsp.Options) task {
	return rasterTask(e, &e.images, img, len(img.Pix), opt, paremsp.LabelIntoCtx)
}

// bitmapTask labels a bit-packed raster (paremsp.LabelBitmapIntoCtx:
// algorithms bremsp and pbremsp).
func (e *Engine) bitmapTask(bm *paremsp.Bitmap, opt paremsp.Options) task {
	return rasterTask(e, &e.bitmaps, bm, bm.Width*bm.Height, opt, paremsp.LabelBitmapIntoCtx)
}

// grayTask labels a gray raster (modes gray and gray-delta).
func (e *Engine) grayTask(img *paremsp.GrayImage, opt paremsp.Options) task {
	return rasterTask(e, &e.grays, img, len(img.Pix), opt, paremsp.LabelGrayIntoCtx)
}

// bitmapStatsTask is bitmapTask for a caller that wants no label map: the
// bit-packed labeler's final pass folds every run into per-component
// statistics instead of writing a raster, so no label map is taken from the
// pool and the result's Labels is nil. With comps set the outcome carries
// the statistics — exactly paremsp.ComponentsOf over bitmapTask's label
// map; unset, the fold is skipped.
func (e *Engine) bitmapStatsTask(bm *paremsp.Bitmap, opt paremsp.Options, comps bool) task {
	opt = e.withThreads(opt)
	npix := int64(bm.Width) * int64(bm.Height)
	return task{
		put: func() { e.bitmaps.put(bm) },
		run: func(ctx context.Context) jobResult {
			sc := e.scratch.get()
			res, cs, err := labelBitmapStats(ctx, bm, sc, opt, comps)
			e.scratch.put(sc)
			e.bitmaps.put(bm)
			if err != nil {
				return jobResult{err: err}
			}
			return jobResult{res: res, comps: cs, pixels: npix, components: res.NumComponents}
		},
	}
}

// labelBitmapStats runs the label-map-free entry points of the bit-packed
// labelers, validated like paremsp.LabelBitmapIntoCtx.
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

// volumeTask labels a binary voxel volume (mode volume) into a pooled label
// volume.
func (e *Engine) volumeTask(vol *paremsp.Volume, opt paremsp.Options) task {
	opt = e.withThreads(opt)
	npix := int64(len(vol.Vox))
	return task{
		put: func() { e.volumes.put(vol) },
		run: func(ctx context.Context) jobResult {
			lv, sc := e.labelVols.get(), e.scratch.get()
			vres, err := paremsp.LabelVolumeIntoCtx(ctx, vol, lv, sc, opt)
			e.scratch.put(sc)
			e.volumes.put(vol)
			if err != nil {
				e.labelVols.put(lv)
				return jobResult{err: err}
			}
			return jobResult{vres: vres, pixels: npix, components: vres.NumComponents}
		},
	}
}

// streamTask runs the out-of-core band labeler over src under the job's
// context. It pools nothing.
func (e *Engine) streamTask(src band.Source, opt band.Options) task {
	return task{
		stream: true,
		put:    func() {},
		run: func(ctx context.Context) jobResult {
			opt.Ctx = ctx
			bres, err := band.Stream(src, opt)
			if err != nil {
				return jobResult{err: err}
			}
			return jobResult{bres: bres, pixels: int64(bres.Width) * int64(bres.Height), components: bres.NumComponents}
		},
	}
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

// submit admits t to the queue under ctx and returns the admitted job,
// whose outcome wait collects; onStart, when non-nil, runs on the worker
// just before the task. A full queue rejects with ErrQueueFull and a closed
// engine with ErrClosed, returning t's input to its pool; once admitted,
// the worker owns the input.
func (e *Engine) submit(ctx context.Context, t task, onStart func()) (*job, error) {
	e.metrics.requests.Add(1)
	j := &job{ctx: ctx, task: t, onStart: onStart, done: make(chan jobResult, 1)}
	if faultinject.Fire(faultinject.QueueFull) {
		return nil, e.reject(j, ErrQueueFull)
	}
	j.enqueued = time.Now()

	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, e.reject(j, ErrClosed)
	}
	select {
	case e.queue <- j:
		j.pos = len(e.queue)
		return j, nil
	default:
		return nil, e.reject(j, ErrQueueFull)
	}
}

// reject counts a refused admission and returns the job's input to its pool.
func (e *Engine) reject(j *job, err error) error {
	e.metrics.rejected.Add(1)
	j.task.put()
	return err
}

// wait returns j's outcome. It gives up when ctx is done first, leaving the
// outcome's buffers to be reclaimed when the worker finishes; the async job
// API passes a context that never ends. Stream jobs read their source (an
// HTTP request body) on the worker, so returning before the worker finishes
// would let the engine touch the body after the handler has returned: they
// always wait — a queued job with a dead ctx is rejected by the worker's
// precheck, and a running one stops at the first failed read.
func (e *Engine) wait(ctx context.Context, j *job) jobResult {
	giveUp := ctx.Done()
	if j.task.stream {
		giveUp = nil
	}
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
	case <-giveUp:
		e.metrics.canceled.Add(1)
		go func() { e.release(<-j.done) }()
		return jobResult{err: ctx.Err()}
	}
}

// do is submit then wait: the synchronous path.
func (e *Engine) do(ctx context.Context, t task) jobResult {
	j, err := e.submit(ctx, t, nil)
	if err != nil {
		return jobResult{err: err}
	}
	return e.wait(ctx, j)
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
// panic deliberately escapes into compute's recoverPanic so the chaos
// suite exercises the same containment path a real panic takes.
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

// compute runs j's task with panic containment: a panic in the labeling
// (or an injected one) surfaces as a wrapped ErrWorkerPanic instead of
// killing the worker goroutine, and skips the task's put-backs, so the
// buffers it may have left mid-mutation are dropped instead of pooled.
func (e *Engine) compute(j *job) (r jobResult) {
	defer e.recoverPanic(&r.err)
	injectWorkerFaults(j.ctx)
	if e.hook != nil {
		if err := e.hook(j.ctx); err != nil {
			j.task.put()
			return jobResult{err: err}
		}
	}
	return j.task.run(j.ctx)
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
			j.task.put()
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
		r := e.compute(j)
		elapsed := time.Since(start).Nanoseconds()
		e.metrics.busyNs.Add(elapsed)
		e.metrics.inFlight.Add(-1)
		if r.err != nil {
			e.metrics.errors.Add(1)
			j.done <- jobResult{err: r.err, wait: wait}
			continue
		}
		e.metrics.completed.Add(1)
		e.metrics.pixels.Add(r.pixels)
		e.metrics.components.Add(int64(r.components))
		if !j.task.stream {
			// Stream durations are dominated by how fast the client's
			// source delivers bands, not by compute, so they stay out of
			// the jobNs mean that RetryAfter is derived from (and out of
			// the service-time histogram, for the same reason). They do
			// count as busy time: the worker is occupied either way.
			e.metrics.jobNs.Add(elapsed)
			e.metrics.jobsTimed.Add(1)
			e.metrics.jobHist.observe(elapsed)
		}
		if res := r.res; res != nil {
			e.metrics.scanNs.Add(res.Phases.Scan.Nanoseconds())
			e.metrics.mergeNs.Add(res.Phases.Merge.Nanoseconds())
			e.metrics.flattenNs.Add(res.Phases.Flatten.Nanoseconds())
			e.metrics.relabelNs.Add(res.Phases.Relabel.Nanoseconds())
			// Histogram observes are two uncontended atomic adds each; the
			// handful per job cost tens of nanoseconds against a job measured
			// in micro- to milliseconds, keeping hot-path overhead under the
			// 2% budget with nothing allocated.
			e.metrics.phaseHist[phaseScan].observe(res.Phases.Scan.Nanoseconds())
			e.metrics.phaseHist[phaseMerge].observe(res.Phases.Merge.Nanoseconds())
			e.metrics.phaseHist[phaseFlatten].observe(res.Phases.Flatten.Nanoseconds())
			e.metrics.phaseHist[phaseRelabel].observe(res.Phases.Relabel.Nanoseconds())
		}
		r.wait = wait
		j.done <- r
	}
}
