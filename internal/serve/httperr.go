package serve

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/obs"
	"repro/internal/robust"
)

// Error kinds carried in JSON error bodies. They mirror the robust
// taxonomy plus the serving-layer conditions, so clients can branch on
// a stable string instead of parsing messages. Both tiers write them.
const (
	KindDomain     = "domain"      // robust.ErrDomain: bad spec or parameters → 400
	KindBadRequest = "bad_request" // malformed request around the model (query params, body size) → 400
	KindNotFound   = "not_found"   // unknown experiment id or route → 404
	KindCanceled   = "canceled"    // deadline expiry, client disconnect or an exhausted gateway budget → 504
	KindPanic      = "panic"       // contained panic inside a solve or the gateway's proxy path → 500
	KindSaturated  = "saturated"   // admission semaphore full → 429
	KindInternal   = "internal"    // anything else → 500
	// KindUnavailable marks a tier refusing work without being broken:
	// injected admission faults on a replica, total ring failure at the
	// gateway. Always 503 with Retry-After.
	KindUnavailable = "unavailable"
)

// httpError is the JSON error body shape. Trace names the trace whose
// span tree explains the failure — usually this request's own, but for
// singleflight followers the leader's originating solve (stamped on the
// error via robust.WithTraceID), so the follower's error still points
// at the trace that did the work.
type httpError struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
	Trace string `json:"trace,omitempty"`
}

// classify maps a model/solver error onto an HTTP status and error
// kind following the robust taxonomy: domain violations are the
// client's fault, cancellation is a timeout, contained panics and
// everything else are server faults — and none of them may take the
// process down.
func classify(err error) (status int, kind string) {
	var pe *robust.PanicError
	switch {
	case errors.Is(err, robust.ErrDomain):
		return http.StatusBadRequest, KindDomain
	case robust.Classify(err) == robust.Canceled:
		return http.StatusGatewayTimeout, KindCanceled
	case errors.As(err, &pe):
		return http.StatusInternalServerError, KindPanic
	default:
		return http.StatusInternalServerError, KindInternal
	}
}

// WriteModelError renders err with the taxonomy mapping.
func WriteModelError(w http.ResponseWriter, r *http.Request, err error) {
	status, kind := classify(err)
	WriteError(w, r, status, kind, err)
}

// WriteError writes a JSON error body stamped with the responsible
// trace ID: the one carried by the error if any, else this request's.
// A 503 or 429 also gets Retry-After, so a shed client knows to back
// off.
func WriteError(w http.ResponseWriter, r *http.Request, status int, kind string, err error) {
	trace := robust.TraceIDOf(err)
	if trace == "" && r != nil {
		trace = obs.TraceFrom(r.Context()).ID()
	}
	if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, status, httpError{Error: err.Error(), Kind: kind, Trace: trace})
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the status line is already committed; nothing useful to do
}
