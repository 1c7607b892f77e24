package serve

import (
	"net/http"

	"repro/internal/technique"
)

// CatalogEntry is one technique family of GET /v1/catalog: the
// registry's by-name construction schema, so clients can build valid
// stack specs without guessing parameter names or domains.
type CatalogEntry struct {
	Name    string   `json:"name"`
	Aliases []string `json:"aliases,omitempty"`
	// Key is the primary parameter the compact "Label=value" CLI spec
	// sets; JSON specs use it inside "params".
	Key string `json:"key"`
	Doc string `json:"doc"`
	// Defaults holds Table 2's parameter values per assumption
	// ("pessimistic", "realistic", "optimistic").
	Defaults map[string]map[string]float64 `json:"defaults"`
}

// handleCatalog serves the technique registry with parameter schemas.
func handleCatalog(w http.ResponseWriter, r *http.Request) {
	out := make([]CatalogEntry, 0, len(technique.Builders))
	for _, b := range technique.Builders {
		e := CatalogEntry{
			Name:     b.Name,
			Aliases:  b.Aliases,
			Key:      b.Key,
			Doc:      b.Doc,
			Defaults: make(map[string]map[string]float64, len(technique.Assumptions)),
		}
		for _, a := range technique.Assumptions {
			e.Defaults[a.String()] = b.Defaults(a)
		}
		out = append(out, e)
	}
	WriteJSON(w, http.StatusOK, out)
}
