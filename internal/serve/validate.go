package serve

import "net/http"

// ValidateResponse is the POST /v1/validate success body: the spec
// parsed and validated without a single solver call. Fingerprint is the
// same canonical key /v1/eval caches (and the fleet gateway routes) on,
// so an editor can show which replica/cache entry a spec will land in
// before ever evaluating it.
type ValidateResponse struct {
	Valid       bool   `json:"valid"`
	ID          string `json:"id"`
	Title       string `json:"title,omitempty"`
	Fingerprint string `json:"fingerprint"`
	Cases       int    `json:"cases"`
}

// handleValidate runs the eval pipeline's first half — body read, the
// full strict parse (catalog names, envelope, axis), fingerprint — and
// stops there. Invalid specs get exactly the error body /v1/eval would
// have sent (ErrDomain → 400 "domain"), which makes this the cheap
// per-keystroke check: no admission slot, no deadline, no solver work.
func handleValidate(w http.ResponseWriter, r *http.Request) {
	in, ok := evalQuery.read(w, r, nil) // no memo: the answer needs the parsed spec
	if !ok {
		return
	}
	WriteJSON(w, http.StatusOK, ValidateResponse{
		Valid:       true,
		ID:          in.spec.ID,
		Title:       in.spec.Title,
		Fingerprint: in.key,
		Cases:       len(in.spec.Cases),
	})
}
