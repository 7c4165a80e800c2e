package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"slices"
	"strconv"
	"time"

	paremsp "repro"
	"repro/internal/jobs"
)

// The asynchronous job API. POST /v1/jobs accepts a single image body (the
// same formats /v1/label takes) or a multipart/form-data batch of images,
// creates one job per image and answers 202 immediately; clients then poll
// GET /v1/jobs/{id}, fetch GET /v1/jobs/{id}/result once the job is done,
// and DELETE /v1/jobs/{id} when they no longer need the result (otherwise
// the store's TTL evicts it).
//
// Jobs are deduplicated by content hash: an identical submission — same
// input bytes, algorithm, connectivity, binarization level and output kind
// — returns the existing job's ID with "dedup": true instead of
// recomputing, whether that job is still queued, running, or already done.
// Failed jobs do not dedup, so a client may retry a failed submission.

// jobJSON is the wire form of a job in submit responses and status bodies.
type jobJSON struct {
	ID            string        `json:"id,omitempty"`
	Kind          string        `json:"kind,omitempty"`
	State         string        `json:"state"`
	Dedup         bool          `json:"dedup,omitempty"`
	QueuePosition int           `json:"queue_position,omitempty"`
	Error         string        `json:"error,omitempty"`
	CreatedAt     *time.Time    `json:"created_at,omitempty"`
	StartedAt     *time.Time    `json:"started_at,omitempty"`
	FinishedAt    *time.Time    `json:"finished_at,omitempty"`
	ExpiresAt     *time.Time    `json:"expires_at,omitempty"`
	Width         int           `json:"width,omitempty"`
	Height        int           `json:"height,omitempty"`
	Depth         int           `json:"depth,omitempty"`
	NumComponents int           `json:"num_components,omitempty"`
	Phases        *phasesJSON   `json:"phases,omitempty"`
	Trace         *jobTraceJSON `json:"trace,omitempty"`
}

// jobTraceJSON is the span-like timing breakdown embedded in a started
// job's status: where the job's wall time went, from submission through
// queue wait, decode, the labeling run (with per-phase splits via the
// sibling phases object) to completion. It is derived from the store's
// transition timestamps, so it needs no extra bookkeeping on the hot path.
type jobTraceJSON struct {
	QueueWaitNs int64 `json:"queue_wait_ns"`
	DecodeNs    int64 `json:"decode_ns,omitempty"`
	RunNs       int64 `json:"run_ns,omitempty"`
	TotalNs     int64 `json:"total_ns,omitempty"`
}

type jobsSubmitResponse struct {
	Jobs []jobJSON `json:"jobs"`
}

// maxBatchParts bounds one multipart submission. Together with the shared
// -max-bytes body cap it bounds how many store entries a single request
// can create (a boundary line costs only tens of bytes, so the byte cap
// alone would admit millions of empty parts).
const maxBatchParts = 256

func jobJSONFrom(j jobs.Job, dedup bool) jobJSON {
	out := jobJSON{
		ID:            j.ID,
		Kind:          string(j.Kind),
		State:         string(j.State),
		Dedup:         dedup,
		QueuePosition: j.QueuePos,
		Error:         j.Err,
	}
	if !j.Created.IsZero() {
		out.CreatedAt = &j.Created
	}
	if !j.Started.IsZero() {
		out.StartedAt = &j.Started
	}
	if !j.Finished.IsZero() {
		out.FinishedAt = &j.Finished
	}
	if !j.ExpiresAt.IsZero() {
		out.ExpiresAt = &j.ExpiresAt
	}
	if !j.Started.IsZero() {
		tr := &jobTraceJSON{QueueWaitNs: j.Started.Sub(j.Created).Nanoseconds()}
		if !j.Finished.IsZero() {
			tr.RunNs = j.Finished.Sub(j.Started).Nanoseconds()
			tr.TotalNs = j.Finished.Sub(j.Created).Nanoseconds()
		}
		out.Trace = tr
	}
	if info := j.Info; info != nil {
		out.Width, out.Height, out.NumComponents = info.Width, info.Height, info.NumComponents
		out.Depth = info.Depth
		if out.Trace != nil {
			out.Trace.DecodeNs = info.DecodeNs
		}
		out.Phases = phasesJSONFrom(info.Phases)
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", ctJSON)
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// batchSizeError writes the failure for a multipart read error, wording
// the over-cap case for the whole batch (decodeError's message is
// per-image).
func (h *Handler) batchSizeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, codePayloadTooLarge,
			fmt.Sprintf("batch exceeds %d bytes in total (all parts share one -max-bytes cap; split the batch)",
				tooBig.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, codeInvalidArgument, err.Error())
}

// parseBandRows parses a ?band= value (band height in rows, 0 = default).
func parseBandRows(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid band %q (want rows >= 0)", v)
	}
	return n, nil
}

// jobsSubmit handles POST /v1/jobs. Query parameters: kind (labels —
// default — stats, contours, gray, or volume), plus the shared spec
// parameters (alg, threads, conn, level, mode, delta, band). When kind is
// absent it follows the spec — mode=gray|gray-delta selects gray jobs,
// mode=volume volume jobs, contours=true contours jobs. A body of
// Content-Type multipart/form-data is a batch: every part is one payload
// and gets its own job; anything else is a single payload. Payloads that
// fail to decode still become jobs — ones that fail immediately,
// observable via their status — so one bad image never voids the rest of
// a batch.
func (h *Handler) jobsSubmit(w http.ResponseWriter, r *http.Request) {
	if h.draining.Load() {
		h.rejectDraining(w)
		return
	}
	kindParam := r.URL.Query().Get("kind")
	spec, aerr := h.parseSpec(r, kindMode(jobs.Kind(kindParam)))
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	kind, aerr := jobKindFor(kindParam, spec)
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}

	mediatype := ""
	params := map[string]string{}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		if mt, p, err := mime.ParseMediaType(ct); err == nil {
			mediatype, params = mt, p
		}
	}

	// One MaxBytesReader caps the whole submission — for a batch, all
	// parts together — because every payload is buffered in memory before
	// its job is created; a per-part cap would let one request pin
	// parts x -max-bytes. Batches larger than the cap must be split.
	type payload struct {
		ct   string
		data []byte
	}
	var payloads []payload
	body := http.MaxBytesReader(w, r.Body, h.maxBytes)
	if mediatype == "multipart/form-data" {
		mr := multipart.NewReader(body, params["boundary"])
		for {
			p, err := mr.NextPart()
			if err == io.EOF {
				break
			}
			if err != nil {
				h.batchSizeError(w, err)
				return
			}
			if len(payloads) == maxBatchParts {
				p.Close()
				writeError(w, http.StatusBadRequest, codeInvalidArgument,
					fmt.Sprintf("batch has more than %d parts; split it", maxBatchParts))
				return
			}
			b, err := io.ReadAll(p)
			p.Close()
			if err != nil {
				h.batchSizeError(w, err)
				return
			}
			payloads = append(payloads, payload{ct: p.Header.Get("Content-Type"), data: b})
		}
		if len(payloads) == 0 {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "empty batch: no multipart parts")
			return
		}
	} else {
		b, err := io.ReadAll(body)
		if err != nil {
			h.decodeError(w, err)
			return
		}
		if len(b) == 0 {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "empty request body")
			return
		}
		payloads = []payload{{ct: r.Header.Get("Content-Type"), data: b}}
	}

	resp := jobsSubmitResponse{Jobs: make([]jobJSON, len(payloads))}
	full, closed := 0, 0
	for i, b := range payloads {
		entry, shedErr := h.submitJob(b.data, b.ct, kind, spec)
		resp.Jobs[i] = entry
		switch {
		case errors.Is(shedErr, ErrQueueFull):
			full++
		case errors.Is(shedErr, ErrClosed):
			closed++
		}
	}
	if full+closed == len(resp.Jobs) {
		// Every image was shed: answer like the synchronous endpoints —
		// 503 on shutdown, 429 with a backoff hint on backpressure.
		if closed > 0 {
			writeError(w, http.StatusServiceUnavailable, codeUnavailable, ErrClosed.Error())
		} else {
			h.rejectBusy(w, ErrQueueFull)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// jobKindFor resolves a submission's job kind from the explicit ?kind=
// and the parsed spec, rejecting contradictory combinations (kind=stats
// with mode=gray, contours=true on a volume job, ...). With kind absent
// the spec decides: gray modes map to gray jobs, volume to volume jobs,
// contours=true to contours jobs, else labels.
func jobKindFor(kindParam string, spec requestSpec) (jobs.Kind, *apiError) {
	kind := jobs.Kind(kindParam)
	if kindParam == "" {
		switch {
		case spec.mode == paremsp.ModeGray || spec.mode == paremsp.ModeGrayDelta:
			kind = jobs.KindGray
		case spec.mode == paremsp.ModeVolume:
			kind = jobs.KindVolume
		case spec.contours:
			kind = jobs.KindContours
		default:
			kind = jobs.KindLabels
		}
	}
	// Modes each kind accepts; with ?mode= absent the spec already holds
	// the kind's natural mode (kindMode).
	var okModes []paremsp.Mode
	switch kind {
	case jobs.KindLabels, jobs.KindStats, jobs.KindContours:
		okModes = []paremsp.Mode{paremsp.ModeBinary}
	case jobs.KindGray:
		okModes = []paremsp.Mode{paremsp.ModeGray, paremsp.ModeGrayDelta}
	case jobs.KindVolume:
		okModes = []paremsp.Mode{paremsp.ModeVolume}
	default:
		return "", badParam("invalid kind %q (want %s, %s, %s, %s or %s)", kindParam,
			jobs.KindLabels, jobs.KindStats, jobs.KindContours, jobs.KindGray, jobs.KindVolume)
	}
	if !slices.Contains(okModes, spec.mode) {
		return "", badParam("kind %s conflicts with mode %s", kind, spec.mode)
	}
	if spec.contours && kind != jobs.KindContours {
		return "", badParam("contours=true requires kind %s", jobs.KindContours)
	}
	return kind, nil
}

// kindMode is the natural mode of an explicit ?kind=: the mode a job of
// that kind runs when ?mode= is absent.
func kindMode(kind jobs.Kind) paremsp.Mode {
	switch kind {
	case jobs.KindGray:
		return paremsp.ModeGray
	case jobs.KindVolume:
		return paremsp.ModeVolume
	default:
		return paremsp.ModeBinary
	}
}

// submitJob creates (or dedups to) the job for one payload — ct is its
// declared Content-Type ("" sniffs, matching /v1/label's rules) — and
// hands new work to the engine via admitJob. shedErr is non-nil
// (ErrQueueFull or ErrClosed) when the engine rejected the payload; the
// job is then marked failed — not removed, since a concurrent identical
// submission may already have dedup'd to its ID — and failed jobs are
// replaced on resubmission.
func (h *Handler) submitJob(body []byte, ct string, kind jobs.Kind, spec requestSpec) (entry jobJSON, shedErr error) {
	// paremsp.JobKeyMode owns the key normalization (default algorithm,
	// the mode's connectivity, the delta slot for gray-delta jobs, level
	// zeroed where binarization cannot matter), so client-side precomputed
	// IDs match the server's and equivalent submissions dedup.
	id := paremsp.JobKeyMode(kind, spec.mode, spec.opt.Algorithm, spec.opt.Connectivity, spec.level, spec.opt.Delta, body)
	p := jobs.Params{
		Alg:         string(spec.opt.Algorithm),
		Conn:        spec.opt.Connectivity,
		Level:       spec.level,
		Threads:     spec.opt.Threads,
		BandRows:    spec.bandRows,
		ContentType: ct,
		Delta:       spec.opt.Delta,
	}
	if spec.mode != paremsp.ModeBinary {
		p.Mode = string(spec.mode)
	}

	j, existed := h.jobs.CreateOrGet(id, kind, p, body)
	if existed {
		return jobJSONFrom(j, true), nil
	}
	gen := j.Gen
	if err := h.admitJob(id, gen, kind, body, p); err != nil {
		// Decode failure, queue backpressure or shutdown: fail the
		// placeholder rather than removing it — a concurrent identical
		// submission may already hold this ID, and a failed job is
		// observable (then replaced on retry) where a vanished one would
		// 404. Only engine rejections count as shed for the batch verdict.
		h.jobs.Fail(id, gen, err)
		j, _ := h.jobs.Get(id)
		if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed) {
			return jobJSONFrom(j, false), err
		}
		return jobJSONFrom(j, false), nil
	}
	j, _ = h.jobs.Get(id)
	return jobJSONFrom(j, false), nil
}

// admitJob decodes one job's payload and admits it to the engine queue,
// wiring the completion callback that lands the terminal state in the
// store. It is the shared admission path for fresh submissions and for
// recovery resubmission after a restart (RecoverJobs), which is why it
// takes the store-journaled Params rather than parsed request state. It
// does not transition the job on error — callers decide between Fail
// (submission) and Cancel (recovery).
//
// The job's lifetime exceeds the HTTP request's, so it runs under the
// server-lifetime base context — not the request's, which dies when the
// 202 is written, and not Background, which a drain could never cancel —
// bounded by -job-timeout when configured. The context is always
// cancelable and registered with the store, so DELETE on a queued or
// running job aborts the computation and releases its worker. Every
// transition targets this entry's generation, so if the job is deleted
// and recreated under the same ID these callbacks cannot touch the
// replacement.
func (h *Handler) admitJob(id string, gen uint64, kind jobs.Kind, body []byte, p jobs.Params) error {
	spec := requestSpec{
		mode:     paremsp.Mode(p.Mode),
		level:    p.Level,
		bandRows: p.BandRows,
		opt: paremsp.Options{
			Algorithm:    paremsp.Algorithm(p.Alg),
			Connectivity: p.Conn,
			Threads:      p.Threads,
			Delta:        p.Delta,
		},
	}
	if spec.mode == "" {
		spec.mode = kindMode(kind)
	}
	spec.opt.Mode = spec.mode
	jctx, jcancel := context.WithCancel(h.baseCtx)
	if h.jobTimeout > 0 {
		jctx, jcancel = context.WithTimeout(h.baseCtx, h.jobTimeout)
	}
	decodeStart := time.Now()
	t, sh, err := h.decodeTask(kind, spec, p.ContentType, bufio.NewReader(bytes.NewReader(body)), int64(len(body)), true)
	if err != nil {
		jcancel()
		return err
	}
	j, err := h.engine.submit(jctx, t, func() { h.jobs.Start(id, gen) })
	if err != nil {
		jcancel()
		return err
	}
	decodeNs := time.Since(decodeStart).Nanoseconds()
	// Registered after a successful submit: the store now owns firing
	// jcancel on DELETE, and drops the registration on any terminal
	// transition.
	h.jobs.RegisterCancel(id, gen, jcancel)
	h.jobs.SetQueuePos(id, gen, j.pos)

	go func() {
		// The job outlives the request: wait for the worker's outcome
		// whatever happens to jctx.
		out := h.engine.wait(context.Background(), j)
		res, werr := out.res, out.err
		var contours []paremsp.Contour
		if werr == nil && kind == jobs.KindContours {
			// Trace under jctx — still live here, and fired by DELETE or the
			// job timeout — so an abandoned contours job stops tracing too.
			contours, werr = paremsp.TraceContoursCtx(jctx, res.Labels, res.NumComponents)
			if werr != nil {
				// The labeling succeeded but the trace was canceled; the
				// label map is unneeded, back to the pool with it.
				h.engine.PutResult(res)
			}
		}
		// Release the timeout timer only after the outcome is in: jctx must
		// stay live while the job sits in the queue and runs.
		jcancel()
		if werr != nil {
			// A context error is a cancellation (client gave up via timeout,
			// DELETE canceled the job, or the server drained), not a
			// computation failure; land the job in the canceled terminal
			// state so clients and metrics can tell the two apart.
			// Resubmitting a canceled job re-runs it.
			if errors.Is(werr, context.Canceled) || errors.Is(werr, context.DeadlineExceeded) {
				h.jobs.Cancel(id, gen, werr)
			} else {
				h.jobs.Fail(id, gen, werr)
			}
			return
		}
		jr := &jobs.Result{ResultInfo: jobs.ResultInfo{
			Width: sh.width, Height: sh.height, Depth: sh.depth, Density: sh.density, DecodeNs: decodeNs,
		}}
		switch bres, vres := out.bres, out.vres; {
		case bres != nil:
			jr.Stats = bres
			jr.BandRows = p.BandRows
			jr.Width, jr.Height, jr.NumComponents = bres.Width, bres.Height, bres.NumComponents
			if px := int64(bres.Width) * int64(bres.Height); px > 0 {
				jr.Density = float64(bres.ForegroundPixels) / float64(px)
			}
		case vres != nil:
			// Only the component summary is retained — the labeled voxel
			// grid would dwarf the input — so the label volume goes straight
			// back to its pool.
			jr.NumComponents = vres.NumComponents
			jr.VolumeSizes = paremsp.VolumeComponentSizes(vres.Labels, vres.NumComponents)
			h.engine.release(out)
		default:
			// The label map is kept out of the engine pool for as long as
			// the job lives; eviction or deletion releases it to the GC.
			// Component statistics are computed once here, so result
			// fetches serve them without rescanning the raster.
			jr.Labels = res.Labels
			jr.Components = paremsp.ComponentsOf(res.Labels)
			jr.NumComponents = res.NumComponents
			jr.Phases = res.Phases
			jr.Contours = contours
		}
		h.jobs.Complete(id, gen, jr)
	}()
	return nil
}

// RecoverJobs resubmits every queued job the durable store replayed from
// its journal — including jobs that were running when the process died,
// which replay as queued — through the normal admission path. Jobs whose
// input is gone or that the engine refuses are canceled with a "recovery:"
// reason, a documented terminal state clients can observe. It returns how
// many jobs were requeued and how many canceled; on the memory backend
// both are zero. Call it after the engine is up and before serving.
func (h *Handler) RecoverJobs() (requeued, canceled int) {
	return h.jobs.Recover(func(j jobs.Job, input []byte) error {
		return h.admitJob(j.ID, j.Gen, j.Kind, input, j.Params)
	})
}

// jobStatus handles GET /v1/jobs/{id}: the job's state, timestamps, queue
// position at admission, and — once done — its dimensions and per-phase
// timings.
func (h *Handler) jobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := h.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, jobJSONFrom(j, false))
}

// jobResult handles GET /v1/jobs/{id}/result. Done labels, contours and
// gray jobs render in the negotiated format (JSON statistics, PGM/PNG
// label map, or a CCL1 stream; ?components=false omits per-component
// statistics from JSON, and contours jobs carry their boundary polylines
// in JSON); done stats and volume jobs are JSON only. Any other state
// answers 409 with the status body, so pollers can distinguish "not yet"
// from "never existed" (404).
func (h *Handler) jobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := h.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound, "unknown job")
		return
	}
	if j.State != jobs.StateDone {
		writeJSON(w, http.StatusConflict, jobJSONFrom(j, false))
		return
	}
	// The payload lives in the store's blob backend (RAM, or disk when the
	// durable backend spilled it), not on the job snapshot.
	res, err := h.jobs.Result(j.ID)
	if err != nil {
		if errors.Is(err, jobs.ErrNoBlob) {
			// The job was evicted or deleted between the Get and the fetch.
			writeError(w, http.StatusNotFound, codeNotFound, "unknown job")
			return
		}
		writeError(w, http.StatusInternalServerError, codeInternal, fmt.Sprintf("read result: %v", err))
		return
	}
	if res.Stats != nil || res.Labels == nil {
		// Stats and volume results have no raster to negotiate: JSON only.
		if accept, ok := negotiateAccept(r.Header.Get("Accept")); !ok || accept != ctJSON {
			writeError(w, http.StatusNotAcceptable, codeNotAcceptable,
				fmt.Sprintf("unsupported Accept %q (this result is %s)",
					r.Header.Get("Accept"), ctJSON))
			return
		}
		w.Header().Set("Content-Type", ctJSON)
		if res.Stats != nil {
			json.NewEncoder(w).Encode(statsResponseFrom(res.Stats, res.BandRows))
			return
		}
		json.NewEncoder(w).Encode(volumeResponse{
			Width: res.Width, Height: res.Height, Depth: res.Depth,
			NumComponents:  res.NumComponents,
			ComponentSizes: res.VolumeSizes,
		})
		return
	}
	accept, ok := negotiateAccept(r.Header.Get("Accept"))
	if !ok {
		writeError(w, http.StatusNotAcceptable, codeNotAcceptable,
			fmt.Sprintf("unsupported Accept %q (want %s, %s, %s or %s)",
				r.Header.Get("Accept"), ctJSON, ctPGM, ctPNG, ctCCL))
		return
	}
	wantComps := true
	if v := r.URL.Query().Get("components"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, fmt.Sprintf("invalid components %q", v))
			return
		}
		wantComps = b
	}
	var comps []paremsp.Component
	if wantComps {
		comps = res.Components
	}
	writeLabeling(w, accept, res.Width, res.Height, res.Density, res.Labels, res.NumComponents, res.Phases, comps, res.Contours)
}

// jobDelete handles DELETE /v1/jobs/{id}: the job and its retained result
// are dropped immediately instead of waiting for TTL eviction. Deleting a
// queued or running job also cancels its computation — the store fires the
// context registered at admission, so a queued job never reaches a worker
// and a running one aborts at its next cancellation poll, releasing the
// worker for other requests.
func (h *Handler) jobDelete(w http.ResponseWriter, r *http.Request) {
	if !h.jobs.Remove(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, codeNotFound, "unknown job")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
