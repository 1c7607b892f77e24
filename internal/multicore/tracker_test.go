package multicore

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/trace"
)

// trackerAssocs are the L2 associativities the differential tests cover;
// 0 is fully associative.
var trackerAssocs = []int{1, 2, 4, 8, 16, 0}

// checkAgainstFullScan replays tr through a CMP and the residency oracle.
// After every access the lifetime counters must be equal, every resident
// line's mask must equal the oracle's mask for the line its slot holds,
// the CMP must have as many non-empty slots as the oracle has lines,
// every L2 eviction must have ended one counted lifetime, and the L2 must
// hold one line per fill that no eviction undid: Validate guarantees that
// every L2 miss fills a line. At the end Sharing() must be equal too. It
// returns the number of lifetimes counted.
func checkAgainstFullScan(t *testing.T, cfg Config, tr []trace.Access) uint64 {
	t.Helper()
	cmp, err := New(cfg)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	ref, err := newFullScan(cfg)
	if err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	for i, a := range tr {
		err, refErr := cmp.Access(a), ref.Access(a)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%+v: access %d %v: error %v, oracle %v", cfg, i, a, err, refErr)
		}
		live := 0
		for slot, mask := range cmp.sharers {
			if mask == 0 {
				continue
			}
			live++
			line := ref.lineOf[slot]
			if refMask, ok := ref.sharers[line]; !ok || refMask != mask {
				t.Fatalf("%+v: after access %d %v: slot %d (line %d): mask %#x, oracle %#x (present %v)",
					cfg, i, a, slot, line, mask, refMask, ok)
			}
		}
		if cmp.stats != ref.stats || live != len(ref.sharers) {
			t.Fatalf("%+v: after access %d %v: counted %+v with %d resident masks, oracle %+v with %d",
				cfg, i, a, cmp.stats, live, ref.stats, len(ref.sharers))
		}
		l2 := cmp.L2().Stats()
		if cmp.stats.EvictedLines != l2.Evictions || uint64(live) != l2.Misses-l2.Evictions {
			t.Fatalf("%+v: after access %d %v: %d lifetimes and %d resident masks, L2 %d evictions and %d misses",
				cfg, i, a, cmp.stats.EvictedLines, live, l2.Evictions, l2.Misses)
		}
	}
	if got, want := cmp.Sharing(), ref.Sharing(); got != want {
		t.Fatalf("%+v: Sharing() = %+v, oracle %+v", cfg, got, want)
	}
	return cmp.stats.EvictedLines
}

// randomTrackerConfig draws a small CMP around the given L2 policy,
// associativity and write policy.
func randomTrackerConfig(r *rand.Rand, policy cachesim.Policy, assoc int, writeBack bool) Config {
	l1Line, l2Line := 32<<r.Intn(2), 32<<r.Intn(3)
	l1Lines, l2Lines := 2<<r.Intn(3), 16<<r.Intn(4)
	return Config{
		Cores: 1 + r.Intn(64),
		L1: cachesim.Config{
			SizeBytes: l1Lines * l1Line, LineBytes: l1Line, Assoc: []int{1, 2, 0}[r.Intn(3)],
			Policy: cachesim.Policy(r.Intn(4)), WriteBack: true, WriteAllocate: true,
		},
		L2: cachesim.Config{
			SizeBytes: l2Lines * l2Line, LineBytes: l2Line, Assoc: assoc, Policy: policy,
			WriteBack: writeBack, WriteAllocate: !writeBack || r.Intn(2) == 0,
		},
	}
}

// trackerTrace draws n accesses of one shape: "spread" over 16× the L2's
// lines, "working-set" over 1–128 lines more than the L2 holds, or
// "conflict" on more lines of one L2 set than it has ways.
func trackerTrace(r *rand.Rand, cfg Config, shape string, n int) []trace.Access {
	lines, sets := cfg.L2.Lines(), cfg.L2.Sets()
	var pick func() uint64
	switch shape {
	case "spread":
		pick = func() uint64 { return uint64(r.Intn(16 * lines)) }
	case "working-set":
		ws := lines + 1 + r.Intn(128)
		pick = func() uint64 { return uint64(r.Intn(ws)) }
	case "conflict":
		set, k := uint64(r.Intn(sets)), lines/sets+1+r.Intn(lines+128)
		pick = func() uint64 { return set + uint64(sets*r.Intn(k)) }
	}
	tr := make([]trace.Access, n)
	for i := range tr {
		tr[i] = trace.Access{
			Addr:  pick()*uint64(cfg.L2.LineBytes) + uint64(r.Intn(cfg.L2.LineBytes)),
			TID:   uint8(r.Intn(cfg.Cores)),
			Write: r.Intn(5) == 0,
		}
	}
	return tr
}

// TestTrackerMatchesFullScan replays random CMPs, covering every L2
// policy, associativity, write policy and trace shape, through the CMP
// and the residency oracle in lockstep.
func TestTrackerMatchesFullScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, policy := range []cachesim.Policy{cachesim.LRU, cachesim.FIFO, cachesim.Random, cachesim.PLRU} {
		for _, assoc := range trackerAssocs {
			for _, writeBack := range []bool{true, false} {
				for _, shape := range []string{"spread", "working-set", "conflict"} {
					cfg := randomTrackerConfig(r, policy, assoc, writeBack)
					// Every shape overflows the L2 or one of its sets.
					if checkAgainstFullScan(t, cfg, trackerTrace(r, cfg, shape, 4000)) == 0 {
						t.Errorf("%+v, %s trace: no lifetime ended", cfg, shape)
					}
				}
			}
		}
	}
}

// FuzzTrackerVsFullScan decodes a CMP and a trace from the fuzz bytes and
// requires the CMP to match the residency oracle after every access.
// Layout:
//
//	data[0]  cores 1–64
//	data[1]  L2 policy (low 2 bits), write-back (bit 2), write-allocate
//	         (bit 3, forced on for write-through), line 32/64/128 (>>4, mod 3)
//	data[2]  L2 associativity (index into trackerAssocs) and 8–128 lines (/6, mod 5)
//	data[3]  L1 lines 2–16 (low 2 bits), associativity 1/2/full (>>2, mod 3),
//	         policy (>>4, mod 4)
//	data[4]  line span L2.Lines()+64 + int8(data[4])/2: 0–127 lines more than the L2 holds
//	data[5]  repeat count 1–8 (low 3 bits); bit 3: span 65536 (spread);
//	         bit 4: every line on one L2 set (conflict)
//	data[6:] up to 1024 accesses of three bytes: line (uint16, mod span),
//	         core (low 6 bits, mod cores), write (top bit)
func FuzzTrackerVsFullScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		l2Line, l2Lines := 32<<(data[1]>>4%3), 8<<(data[2]/6%5)
		assoc := trackerAssocs[data[2]%6]
		if assoc > l2Lines {
			assoc = 0
		}
		l1Lines := 2 << (data[3] & 3)
		cfg := Config{
			Cores: 1 + int(data[0]%64),
			L1: cachesim.Config{
				SizeBytes: l1Lines * 64, LineBytes: 64, Assoc: []int{1, 2, 0}[data[3]>>2%3],
				Policy: cachesim.Policy(data[3] >> 4 % 4), WriteBack: true, WriteAllocate: true,
			},
			L2: cachesim.Config{
				SizeBytes: l2Lines * l2Line, LineBytes: l2Line, Assoc: assoc,
				Policy: cachesim.Policy(data[1] & 3), WriteBack: data[1]&4 != 0,
				WriteAllocate: data[1]&4 == 0 || data[1]&8 != 0,
			},
		}
		span := uint64(l2Lines + 64 + int(int8(data[4]))/2)
		if data[5]&8 != 0 {
			span = 1 << 16
		}
		stride := uint64(1)
		if data[5]&16 != 0 {
			stride = uint64(cfg.L2.Sets())
		}
		reps := 1 + int(data[5]&7)
		syms := data[6:min(len(data), 6+3*1024)]
		tr := make([]trace.Access, 0, reps*len(syms)/3)
		for r := 0; r < reps; r++ {
			for i := 0; i+3 <= len(syms); i += 3 {
				line := uint64(binary.LittleEndian.Uint16(syms[i:])) % span * stride
				tr = append(tr, trace.Access{
					Addr:  line * uint64(l2Line),
					TID:   uint8(int(syms[i+2]&63) % cfg.Cores),
					Write: syms[i+2]&128 != 0,
				})
			}
		}
		checkAgainstFullScan(t, cfg, tr)
	})
}
