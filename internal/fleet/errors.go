package fleet

import (
	"encoding/json"
	"net/http"
)

// Error kinds in gateway-originated JSON error bodies. They are the
// same strings the serve tier uses, so a client sees one taxonomy
// whether an error was minted by a replica or by the gateway itself.
const (
	kindDomain      = "domain"      // spec outside the model domain → 400, never proxied
	kindBadRequest  = "bad_request" // malformed request at the gateway → 400
	kindCanceled    = "canceled"    // deadline budget exhausted → 504
	kindUnavailable = "unavailable" // total ring failure, no stale reserve → 503
	kindInternal    = "internal"    // anything else → 500
)

// gwError is the gateway's JSON error body — the same shape as the
// serve tier's.
type gwError struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, kind string, err error) {
	if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, gwError{Error: err.Error(), Kind: kind})
}
