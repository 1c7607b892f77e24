package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAnswerBodiesIgnoreSolverMemo: a 200 body is a pure function of its
// key. Every shipped example must come back byte-identical from a cold
// server and from one whose solver memo already holds every stack it
// needs — warmed by the same spec under another id, which is another
// fingerprint, so the warm server renders afresh from memo hits alone.
func TestAnswerBodiesIgnoreSolverMemo(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs (%v)", err)
	}
	for _, p := range paths {
		t.Run(filepath.Base(p), func(t *testing.T) {
			k := queryKinds[0]
			if strings.HasPrefix(filepath.Base(p), "optimize-") {
				k = queryKinds[1]
			}
			body, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(body, &fields); err != nil {
				t.Fatal(err)
			}
			fields["id"] = json.RawMessage(`"memo-warmer"`)
			warmer, err := json.Marshal(fields)
			if err != nil {
				t.Fatal(err)
			}
			if k.mustKey(t, string(warmer)) == k.mustKey(t, string(body)) {
				t.Fatal("the warmer shares the example's fingerprint")
			}
			answer := func(bodies ...[]byte) []byte {
				_, ts, _ := newTestServer(t, Config{}, nil)
				var data []byte
				for _, b := range bodies {
					var resp *http.Response
					resp, data = post(t, ts.URL+k.path, string(b))
					if resp.StatusCode != http.StatusOK || resp.Header.Get(CacheHeader) != "miss" {
						t.Fatalf("status %d, %s %q: %s", resp.StatusCode, CacheHeader, resp.Header.Get(CacheHeader), data)
					}
				}
				return data
			}
			cold := answer(body)
			if warm := answer(warmer, body); !bytes.Equal(warm, cold) {
				t.Errorf("warm-memo body differs from the cold one:\ncold %s\nwarm %s", cold, warm)
			}
		})
	}
}
