package serve

import (
	"fmt"
	"net/http"

	"repro/internal/exp"
)

// ExperimentInfo is one row of GET /v1/experiments.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Paper string `json:"paper,omitempty"`
}

// handleExperiments lists the registered reproductions in paper order.
func handleExperiments(w http.ResponseWriter, r *http.Request) {
	out := make([]ExperimentInfo, 0, len(exp.Registry))
	for _, e := range exp.Registry {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title, Paper: e.Paper})
	}
	WriteJSON(w, http.StatusOK, out)
}

// handleExperimentRun runs one registered reproduction and returns its
// Result JSON (the `bandwall run -json` shape). ?quick=1 selects
// reduced simulation fidelity; the admission and deadline middleware
// already bound the request, and exp.RunOne contains panics, so a
// misbehaving driver degrades to a 500 on this one request.
func (s *Server) handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := exp.ByID(id)
	if !ok {
		WriteError(w, r, http.StatusNotFound, KindNotFound,
			fmt.Errorf("unknown experiment %q (GET /v1/experiments lists them)", id))
		return
	}
	opts := exp.Options{Quick: r.URL.Query().Get("quick") != ""}
	res, err := exp.RunOne(r.Context(), e, opts)
	if err != nil {
		WriteModelError(w, r, err)
		return
	}
	WriteJSON(w, http.StatusOK, res)
}
