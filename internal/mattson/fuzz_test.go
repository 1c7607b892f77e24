package mattson

import (
	"context"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/trace"
)

// fuzzAssocs are the associativities FuzzMattsonVsBrute picks from: the
// fused 8-way quintet, the packed kernel's other widths (including
// non-powers of two), the recency-ordered layout at one way and above 8
// ways, and 0, fully associative, which the reuse-distance Profiler
// serves.
var fuzzAssocs = []int{1, 2, 3, 4, 6, 8, 12, 16, 64, 0}

// FuzzMattsonVsBrute decodes a sweep and a trace from the fuzz bytes and
// requires the sweep at workers 0 (the default for the host's
// GOMAXPROCS), 1, 2 and 4 to match the brute simulator exactly. Layout:
//
//	data[0]  associativity (index into fuzzAssocs; 9 is fully associative)
//	data[1]  line size 32/64/128 (mod 3) and 2–5 nested sizes
//	data[2]  smallest set count 16/32/64 (mod 3) and the line spread
//	data[3]  repeat count 1–8 (low 3 bits) and warmup in 32nds
//	data[4:] one access per byte: line (b>>1) << spread, write bit b&1
//
// The alphabet is 128 lines, and a spread at or above log2 of a size's
// set count folds every line into one of its sets, so hot single-set
// traces (one partition doing all the work) come up often. A fully
// associative sweep has no sets: its sizes hold the smallest set count's
// 16/32/64 lines, doubling, so at most 1,024 lines, and it must match the
// brute simulator's accesses, hits, misses and fill bytes, leaving
// evictions and write-backs zero (the reuse-distance histogram cannot
// derive them).
func FuzzMattsonVsBrute(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		assoc := fuzzAssocs[int(data[0])%len(fuzzAssocs)]
		lineBytes := 32 << (data[1] % 3)
		nsizes := 2 + int(data[1]/3)%4
		minSets := 16 << (data[2] % 3)
		spread := uint(data[2]/3) % 11
		reps := 1 + int(data[3]&7)
		syms := data[4:]
		base := cachesim.Config{
			LineBytes: lineBytes, Assoc: assoc, Policy: cachesim.LRU,
			WriteBack: true, WriteAllocate: true,
		}
		sizes := make([]int, nsizes)
		for k := range sizes {
			lines := minSets << k
			if assoc > 0 {
				lines *= assoc
			}
			sizes[k] = lines * lineBytes
		}
		if w, _ := parallelWorkers(4, minSets); w < 2 {
			t.Fatalf("smallest size has %d sets: workers resolve to %d, want ≥ 2", minSets, w)
		}
		tr := make([]trace.Access, 0, reps*len(syms))
		for r := 0; r < reps; r++ {
			for _, b := range syms {
				line := uint64(b>>1) << spread
				tr = append(tr, trace.Access{
					Addr:  line*uint64(lineBytes) + uint64(b)%uint64(lineBytes),
					Write: b&1 == 1,
				})
			}
		}
		warmup := len(tr) * int(data[3]>>3) / 32
		brute, err := cachesim.MissCurve(tr, base, sizes, warmup)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 4} {
			// The wrapped replayer hides Batch, so the sweep draws the
			// stream through Next instead, as it draws a generator.
			for _, gen := range []trace.Generator{trace.MustReplayer(tr), struct{ trace.Generator }{trace.MustReplayer(tr)}} {
				fast, err := MissCurveFastParallel(context.Background(), gen, base, sizes, warmup, len(tr), workers)
				if err != nil {
					t.Fatal(err)
				}
				for i, want := range brute {
					if assoc == 0 {
						st := want.Stats
						want.Stats = cachesim.Stats{Accesses: st.Accesses, Hits: st.Hits, Misses: st.Misses, FillBytes: st.FillBytes}
					}
					if fast[i] != want {
						_, batched := gen.(trace.Batcher)
						t.Fatalf("assoc %d line %d workers %d batched %v size %d: brute %+v, fast %+v",
							assoc, lineBytes, workers, batched, want.SizeBytes, want.Stats, fast[i].Stats)
					}
				}
			}
		}
	})
}
