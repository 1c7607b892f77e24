package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/robust"
)

// FuzzParseSpec holds ParseSpec, which reads every POST /v1/eval body,
// to fuzzParser's properties.
func FuzzParseSpec(f *testing.F) {
	fuzzParser(f, ParseSpec)
}

// FuzzParseOptimizeSpec is FuzzParseSpec for ParseOptimizeSpec, which
// reads every POST /v1/optimize body.
func FuzzParseOptimizeSpec(f *testing.F) {
	fuzzParser(f, ParseOptimizeSpec)
}

// fuzzParser seeds a network-facing parser with the shipped example
// specs, bare and with each of trailingTails, and checks that for any
// body and any appended byte:
//   - the parser does not panic;
//   - every error is robust.ErrDomain (a 400, never a 500);
//   - every success marshals to a canonical form that parses and
//     marshals back to itself — the serve tier's key is the SHA-256 of
//     those bytes, so the body and its canonical form share one key;
//   - a success followed by a byte that is not JSON whitespace fails.
func fuzzParser[T any](f *testing.F, parse func([]byte) (T, error)) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example specs to seed from (%v)", err)
	}
	for _, p := range paths {
		body, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, byte('}'))
		for _, tail := range trailingTails {
			f.Add(append(bytes.Clone(body), tail...), tail[0])
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, tail byte) {
		v, err := parse(body)
		if err != nil {
			if !errors.Is(err, robust.ErrDomain) {
				t.Fatalf("error is not robust.ErrDomain: %v", err)
			}
			return
		}
		canon, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshaling a parsed spec: %v", err)
		}
		again, err := parse(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, canon)
		}
		canon2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("marshaling the reparsed spec: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("Marshal→Parse→Marshal is not a fixed point:\n%s\n%s", canon, canon2)
		}
		switch tail {
		case ' ', '\t', '\r', '\n':
			return
		}
		if _, err := parse(append(bytes.Clone(body), tail)); err == nil {
			t.Fatalf("accepted %q after a valid body", tail)
		}
	})
}
