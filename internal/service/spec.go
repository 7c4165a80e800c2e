package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	paremsp "repro"
)

// The service's one request-parsing path. Every /v1/* admission endpoint —
// /v1/label, /v1/stats, /v1/volume, POST /v1/jobs — parses its query
// string through parseSpec, so a parameter means the same thing, takes the
// same values, and fails with the same error code and wording everywhere.
// Adding a parameter here adds it to every endpoint at once.

// Error codes of the structured error envelope. Every non-2xx response on
// a /v1/* endpoint is {"error":{"code":..., "message":...}}; the code is
// the stable, machine-matchable vocabulary (messages may be reworded).
const (
	codeInvalidArgument  = "invalid_argument"       // 400: bad parameter or body
	codeUnsupportedMedia = "unsupported_media_type" // 415: Content-Type not spoken
	codeNotAcceptable    = "not_acceptable"         // 406: Accept not satisfiable
	codePayloadTooLarge  = "payload_too_large"      // 413: body over -max-bytes
	codeQueueFull        = "queue_full"             // 429: backpressure shed
	codeUnavailable      = "unavailable"            // 503: draining, closed, canceled
	codeTimeout          = "timeout"                // 504: request/job deadline lapsed
	codeInternal         = "internal"               // 500: contained worker panic, store fault
	codeNotFound         = "not_found"              // 404: unknown job
)

// errorJSON is the wire form of the error envelope.
type errorJSON struct {
	Error errorBodyJSON `json:"error"`
}

type errorBodyJSON struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeError writes the structured error envelope. Headers that must
// accompany the status (Retry-After on 429/503) are set by the caller
// before this call.
func writeError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", ctJSON)
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorJSON{Error: errorBodyJSON{Code: code, Message: message}})
}

// apiError is a request-validation failure carrying its HTTP status and
// envelope code, so parse errors surface identically on every endpoint.
type apiError struct {
	status  int
	code    string
	message string
}

func (e *apiError) Error() string { return e.message }

func badParam(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: codeInvalidArgument, message: fmt.Sprintf(format, args...)}
}

// writeAPIError renders an apiError (or any error, defaulting to 400
// invalid_argument) as the envelope.
func writeAPIError(w http.ResponseWriter, err error) {
	if ae, ok := err.(*apiError); ok {
		writeError(w, ae.status, ae.code, ae.message)
		return
	}
	writeError(w, http.StatusBadRequest, codeInvalidArgument, err.Error())
}

// requestSpec is the parsed, validated form of a /v1/* request's query
// parameters: the workload mode, the labeling options, and the
// endpoint-shared knobs. One parser, one validation path, one error
// vocabulary — every admission endpoint builds exactly this.
type requestSpec struct {
	// mode is the workload: binary (default), gray, gray-delta, or volume.
	mode paremsp.Mode
	// opt carries Algorithm/Threads/Connectivity/Mode/Delta, ready to hand
	// to the engine.
	opt paremsp.Options
	// level is the binarization threshold for grayscale input (binary and
	// volume modes; gray modes label intensities directly and ignore it).
	level float64
	// bandRows is ?band= (stats jobs; 0 selects the default band height).
	bandRows int
	// components is ?components= (include per-component statistics in JSON
	// responses; default true).
	components bool
	// contours is ?contours= on /v1/label: also trace each component's
	// outer boundary polyline into the JSON response.
	contours bool
}

// parseSpec parses and validates the query parameters shared by the
// admission endpoints; native is the mode the endpoint serves when ?mode=
// is absent. Connectivity is validated against the mode's neighborhood
// (binary: 4/8, gray: 8, volume: 26); 0 always selects the mode's default.
//
// This is the one place the default algorithm is resolved: a binary-mode
// request without ?alg= runs the handler's default (pbremsp unless
// configured). Other modes keep an empty algorithm, which their labelers
// resolve to their own default.
func (h *Handler) parseSpec(r *http.Request, native paremsp.Mode) (requestSpec, *apiError) {
	q := r.URL.Query()
	spec := requestSpec{mode: native, level: h.level, components: true}

	if v := q.Get("mode"); v != "" {
		m := paremsp.Mode(v)
		if !slices.Contains(paremsp.Modes(), m) {
			return spec, badParam("unknown mode %q (want one of %v)", v, paremsp.Modes())
		}
		spec.mode = m
	}
	spec.opt.Mode = spec.mode

	if v := q.Get("alg"); v != "" {
		a := paremsp.Algorithm(v)
		if !slices.Contains(paremsp.Algorithms(), a) {
			return spec, badParam("unknown algorithm %q", v)
		}
		spec.opt.Algorithm = a
	} else if spec.mode == paremsp.ModeBinary {
		spec.opt.Algorithm = h.defaultAlg
	}
	if v := q.Get("threads"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return spec, badParam("invalid threads %q", v)
		}
		spec.opt.Threads = n
	}
	if v := q.Get("conn"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || !connValidFor(spec.mode, n) {
			return spec, badParam("invalid conn %q (mode binary wants 4 or 8, gray 8, volume 26)", v)
		}
		spec.opt.Connectivity = n
	}
	if v := q.Get("level"); v != "" {
		lv, err := strconv.ParseFloat(v, 64)
		if err != nil || lv < 0 || lv >= 1 {
			return spec, badParam("invalid level %q (want [0, 1))", v)
		}
		spec.level = lv
	}
	if v := q.Get("delta"); v != "" {
		if spec.mode != paremsp.ModeGrayDelta {
			return spec, badParam("delta requires mode=%s", paremsp.ModeGrayDelta)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > 255 {
			return spec, badParam("invalid delta %q (want 0..255)", v)
		}
		spec.opt.Delta = uint8(n)
	}
	if v := q.Get("band"); v != "" {
		n, err := parseBandRows(v)
		if err != nil {
			return spec, badParam("%s", err.Error())
		}
		spec.bandRows = n
	}
	if v := q.Get("components"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return spec, badParam("invalid components %q", v)
		}
		spec.components = b
	}
	if v := q.Get("contours"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return spec, badParam("invalid contours %q", v)
		}
		spec.contours = b
	}
	return spec, nil
}

// connValidFor reports whether conn is a valid ?conn= for the mode; 0
// (unset) always is and selects the mode's default.
func connValidFor(mode paremsp.Mode, conn int) bool {
	switch mode {
	case paremsp.ModeGray, paremsp.ModeGrayDelta:
		return conn == 0 || conn == 8
	case paremsp.ModeVolume:
		return conn == 0 || conn == 26
	default:
		return conn == 4 || conn == 8
	}
}
