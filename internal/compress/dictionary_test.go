package compress

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDictCodecValidation(t *testing.T) {
	if _, err := NewDictLinkCodec(0); err == nil {
		t.Error("zero line size accepted")
	}
	if _, err := NewDictLinkCodec(66); err == nil {
		t.Error("non-multiple-of-4 accepted")
	}
	c, _ := NewDictLinkCodec(64)
	if _, err := c.Encode(make([]byte, 32)); err == nil {
		t.Error("wrong line length accepted")
	}
	if _, err := c.Decode([]byte{}); err == nil {
		t.Error("empty frame accepted")
	}
}

func TestDictCodecRoundTripInOrder(t *testing.T) {
	c, err := NewDictLinkCodec(64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	mix := CommercialMix()
	var lines, frames [][]byte
	for i := 0; i < 200; i++ {
		line := GenerateLine(mix.SampleKind(rng), 64, rng)
		frame, err := c.Encode(line)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
		frames = append(frames, frame)
	}
	for i, frame := range frames {
		back, err := c.Decode(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(back, lines[i]) {
			t.Fatalf("frame %d: round trip mismatch", i)
		}
	}
	if c.Ratio() <= 1 {
		t.Errorf("commercial stream ratio = %v, want > 1", c.Ratio())
	}
}

func TestDictCodecExploitsCrossLineLocality(t *testing.T) {
	// A stream repeating the same line compresses enormously after the
	// first transfer: every word hits the dictionary (7 bits vs 33).
	c, err := NewDictLinkCodec(64)
	if err != nil {
		t.Fatal(err)
	}
	line := GenerateLine(KindPointer, 64, rand.New(rand.NewSource(4)))
	first, err := c.Encode(line)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Encode(line)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) >= len(first) {
		t.Errorf("repeat not cheaper: %d vs %d bytes", len(second), len(first))
	}
	// 16 hit-coded words: 16×7 = 112 bits = 14 bytes.
	if len(second) != 14 {
		t.Errorf("all-hit frame = %d bytes, want 14", len(second))
	}
}

func TestDictCodecStatefulDecode(t *testing.T) {
	// Decoding depends on order: swapping frames must fail or mismatch.
	enc, _ := NewDictLinkCodec(8)
	lineA := []byte{1, 0, 0, 0, 2, 0, 0, 0}
	lineB := []byte{1, 0, 0, 0, 3, 0, 0, 0} // shares word 1 with A
	fa, err := enc.Encode(lineA)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := enc.Encode(lineB)
	if err != nil {
		t.Fatal(err)
	}
	// In-order decode works.
	dec, _ := NewDictLinkCodec(8)
	a, err := dec.Decode(fa)
	if err != nil || !bytes.Equal(a, lineA) {
		t.Fatalf("in-order A failed: %v", err)
	}
	b, err := dec.Decode(fb)
	if err != nil || !bytes.Equal(b, lineB) {
		t.Fatalf("in-order B failed: %v", err)
	}
	// Out-of-order decode must not silently reproduce the right data.
	dec2, _ := NewDictLinkCodec(8)
	got, err := dec2.Decode(fb)
	if err == nil && bytes.Equal(got, lineB) {
		t.Error("out-of-order decode reproduced the line; dictionary state is not being used")
	}
}

func TestDictCodecQuickRoundTrip(t *testing.T) {
	prop := func(seed int64, n8 uint8) bool {
		enc, _ := NewDictLinkCodec(32)
		dec, _ := NewDictLinkCodec(32)
		rng := rand.New(rand.NewSource(seed))
		mix := IntegerMix()
		n := 1 + int(n8%16)
		for i := 0; i < n; i++ {
			line := GenerateLine(mix.SampleKind(rng), 32, rng)
			f, err := enc.Encode(line)
			if err != nil {
				return false
			}
			back, err := dec.Decode(f)
			if err != nil || !bytes.Equal(back, line) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDictBeatsStatelessOnRepetitiveStreams: the Thuresson insight —
// value locality across transfers buys ratio a per-line codec cannot see.
func TestDictBeatsStatelessOnRepetitiveStreams(t *testing.T) {
	dict, _ := NewDictLinkCodec(64)
	fpc, _ := NewLinkCodec(64)
	rng := rand.New(rand.NewSource(77))
	// A pool of 3 pointer-heavy lines (48 distinct words, within the
	// 64-entry dictionary) cycled repeatedly: high cross-line value
	// locality, poor FPC compressibility. A larger pool than the
	// dictionary would thrash it — the same capacity cliff caches have.
	pool := make([][]byte, 3)
	for i := range pool {
		pool[i] = GenerateLine(KindPointer, 64, rng)
	}
	for i := 0; i < 400; i++ {
		line := pool[i%len(pool)]
		if _, err := dict.Encode(line); err != nil {
			t.Fatal(err)
		}
		if _, err := fpc.Encode(line); err != nil {
			t.Fatal(err)
		}
	}
	if !(dict.Ratio() > fpc.Ratio()) {
		t.Errorf("dictionary (%v) should beat stateless FPC (%v) on repetitive streams",
			dict.Ratio(), fpc.Ratio())
	}
	if dict.Ratio() < 3 {
		t.Errorf("dictionary ratio = %v, want ≥ 3 on a 3-line cycle", dict.Ratio())
	}
}
