// Package service is the operational layer around the labeling algorithms: a
// long-lived Engine that runs labelings on a bounded worker pool with a
// request queue, backpressure, and sync.Pool-based reuse of input rasters,
// label maps and scratch, plus an http.Handler exposing it as a labeling
// service.
//
// Every labeling is one task: the handler decodes a request body into a
// pooled input (byte image, packed bitmap, gray raster, voxel volume, or a
// band reader over the body) and wraps it in the task that labels it. The
// synchronous endpoints and the async jobs submit tasks to the same queue
// and wait on them the same way, and one worker loop runs every task with
// the same panic containment and the same metrics. The engine admits at
// most Workers in-flight tasks plus QueueDepth queued ones; beyond that,
// submission fails fast with ErrQueueFull so callers (and the HTTP layer,
// which maps it to 429) shed load instead of queuing unboundedly. A task
// borrows its output buffers from the pools on the worker and returns
// them with its input, so sustained traffic does not re-allocate per
// request. Library callers use Label (a pooled image from GetImage, the
// result released with PutResult) and Stats (a band source).
//
// The HTTP surface is:
//
//	POST /v1/label  body = PBM/PGM (Netpbm) or PNG, negotiated via
//	                Content-Type (sniffed when absent); query parameters
//	                alg, threads, conn, level select per-request options.
//	                The response format follows Accept: JSON component
//	                stats (default), a PGM or PNG label map, or a CCL1
//	                label stream (application/x-ccl).
//	POST /v1/stats  body = PBM or PGM, raw or plain, streamed through
//	                the out-of-core band labeler (internal/band) on the
//	                same worker pool: arbitrarily tall images are labeled
//	                in O(band) memory and only JSON component statistics
//	                (area, bbox, centroid, run count) come back. Query
//	                parameters: level, band (band height in rows).
//	POST /v1/volume body = concatenated raw PGM (P5) frames, labeled as one
//	                26-connected volume; JSON component summary.
//	POST /v1/jobs   the async job API over the same engine (see jobs_http.go).
//	GET  /healthz   liveness probe.
//	GET  /metrics   Prometheus-style text: requests, completions,
//	                rejections, queue depth, cumulative per-phase
//	                scan/merge/flatten/relabel nanoseconds, and log₂-bucket
//	                latency histograms (per-endpoint request duration,
//	                queue wait, job service time, per-phase durations)
//	                with approximate p50/p95/p99 gauges.
//
// # Observability
//
// Every request is wrapped by Obs middleware: the X-Request-ID header is
// honored when present (generated otherwise) and echoed on the response;
// end-to-end latency lands in a lock-free per-endpoint histogram; and a
// per-request Trace — queue wait, decode, scan, merge, flatten, relabel,
// encode — is captured into a fixed-size ring buffer. /v1/label responses
// carry the trace live as a Server-Timing header; async job status bodies
// embed a trace derived from the store's transition timestamps. The
// instrumentation is allocation-free on the hot path (pooled request
// state, atomic histogram adds, in-place ring copies).
//
// NewDebugHandler serves the operator-only surface — net/http/pprof under
// /debug/pprof/ and the trace-ring dump under GET /debug/requests?n=50
// (filter one request with ?id=) — as a separate handler so deployments
// bind it to a loopback listener (ccserve -debug-addr), never the public
// address. Structured logs (access lines, job lifecycle) flow through the
// slog.Logger given to NewObs; a nil logger disables logging without
// disabling the histograms or the trace ring.
package service
