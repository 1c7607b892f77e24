package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scriptSource is a rand.Source whose first Int63 is chosen and whose
// later ones come from splitmix64, so a Rand over it returns a chosen
// first Float64 and a fixed stream after it. calls counts the Int63 calls.
type scriptSource struct {
	first int64
	state uint64
	calls int
}

func (s *scriptSource) Int63() int64 {
	s.calls++
	if s.calls == 1 {
		return s.first
	}
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return int64((x ^ x>>31) >> 1)
}

func (s *scriptSource) Seed(seed int64) { s.state, s.calls = uint64(seed), 0 }

// scriptedDraw runs one whole draw from each of rand.Zipf and z, each on a
// scriptSource whose first Int63 is first and whose stream after it is
// seeded by rest, and fails unless z returns min(rand.Zipf's value, imax)
// after the same number of Int63 calls. Every r that rand.Float64 can
// return is float64(i)/2^63 for some Int63 value i.
func scriptedDraw(t *testing.T, z *zipfDraw, q float64, imax uint64, first int64, rest uint64) {
	t.Helper()
	ref, ours := &scriptSource{first: first, state: rest}, &scriptSource{first: first, state: rest}
	want := min(rand.NewZipf(rand.New(ref), q, 1, imax).Uint64(), imax)
	got := z.next(rand.New(ours))
	if got != want || ours.calls != ref.calls {
		r := float64(first) / (1 << 63)
		t.Fatalf("q=%g imax=%d first r=%v (%#x): got %d after %d Int63 calls, rand.Zipf %d after %d",
			q, imax, r, math.Float64bits(r), got, ours.calls, want, ref.calls)
	}
}

// zipfCases are fig14's region (q 1.01, 8,192 lines), ext-drambw's stream
// (q 1.0001, 2^20 lines, past the size cap), three steeper skews, the
// smallest regions, both sides of the size cap and a skew whose exactness
// budget fails; tabled is whether newZipfDraw builds a table.
var zipfCases = []struct {
	q      float64
	imax   uint64
	tabled bool
}{
	{1.01, 8191, true},
	{1.0001, 1<<20 - 1, false},
	{1.1, 8191, true},
	{1.2, 8191, true},
	{2, 8191, true},
	{1.01, 0, true},
	{1.01, 1, true},
	{1.01, 10, true},
	{2, 0, true},
	{2, 1, true},
	{2, 10, true},
	{1.0001, 8191, true},
	{1.1, zipfMaxLines - 1, true},
	{1.1, zipfMaxLines, false},
	{1 + 1e-7, 100, false},
}

// TestZipfDrawMatchesStdlib pins zipfDraw to rand.Zipf clamped to imax:
// whole seeded streams draw for draw, and single draws whose first
// uniform r is chosen at r = 0, r = 1 − 2^-53 and both Nextafter
// neighbours of every table bound. Where such an r is not
// float64(i)/2^63 for an integer i, no Float64 call returns it, and the
// table's decision is checked against the loop body that rand.Zipf runs,
// exact, instead.
func TestZipfDrawMatchesStdlib(t *testing.T) {
	draws := 200_000
	if testing.Short() {
		draws = 20_000
	}
	for _, tc := range zipfCases {
		t.Run(fmt.Sprintf("q=%g/imax=%d", tc.q, tc.imax), func(t *testing.T) {
			z := newZipfDraw(tc.q, tc.imax)
			if tabled := z.band != nil; tabled != tc.tabled {
				t.Fatalf("table built %v, want %v", tabled, tc.tabled)
			}
			for seed := int64(1); seed <= 3; seed++ {
				refRng, rng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				ref := rand.NewZipf(refRng, tc.q, 1, tc.imax)
				for i := 0; i < draws; i++ {
					if got, want := z.next(rng), min(ref.Uint64(), tc.imax); got != want {
						t.Fatalf("seed %d draw %d: %d, rand.Zipf %d", seed, i, got, want)
					}
				}
				if got, want := rng.Int63(), refRng.Int63(); got != want {
					t.Fatalf("seed %d: the streams used different numbers of uniforms", seed)
				}
			}
			check := func(r float64) {
				if !(r >= 0 && r < 1) {
					return
				}
				if i := math.Ldexp(r, 63); i == math.Trunc(i) {
					scriptedDraw(t, z, tc.q, tc.imax, int64(i), 7)
				}
				gk, gok := z.decide(r)
				wk, wok := z.exact(r)
				if gk != wk || gok != wok {
					t.Fatalf("r=%v (%#x): decide gives %d %v, the loop body %d %v", r, math.Float64bits(r), gk, gok, wk, wok)
				}
			}
			check(0)
			check(1 - 0x1p-53)
			for _, b := range z.band {
				for _, bound := range []float64{b.lo, b.hi} {
					check(math.Nextafter(bound, 0))
					check(bound)
					check(math.Nextafter(bound, 1))
				}
			}
		})
	}
}

// TestZipfDrawClampsPastImax pins the draws where rand.Zipf leaves its
// region: at ext-drambw's skew 1.0001 over 2^20 lines and at the same skew
// over 8,192 lines, a first uniform r at or near 0 makes rand.Zipf return
// imax + 1, and zipfDraw must return imax.
func TestZipfDrawClampsPastImax(t *testing.T) {
	for _, tc := range []struct {
		imax  uint64
		first int64
	}{
		{1<<20 - 1, 0},
		{1<<20 - 1, 580_611},
		{8191, 0},
		{8191, 873_680},
	} {
		src := &scriptSource{first: tc.first, state: 7}
		if v := rand.NewZipf(rand.New(src), 1.0001, 1, tc.imax).Uint64(); v != tc.imax+1 {
			t.Fatalf("imax %d first Int63 %d: rand.Zipf returns %d, want the overshoot %d", tc.imax, tc.first, v, tc.imax+1)
		}
		z := newZipfDraw(1.0001, tc.imax)
		if got := z.next(rand.New(&scriptSource{first: tc.first, state: 7})); got != tc.imax {
			t.Errorf("imax %d first Int63 %d: zipfDraw returns %d, want %d", tc.imax, tc.first, got, tc.imax)
		}
	}
}

// TestZipfDrawTableShare measures, at fig14's region, the share of
// uniform draws the table decides and the bucket steps a draw walks,
// against the figures the zipfDraw doc gives.
func TestZipfDrawTableShare(t *testing.T) {
	z := newZipfDraw(1.01, 8191)
	rng := rand.New(rand.NewSource(1))
	const n = 1_000_000
	decided, steps := 0, 0
	for range n {
		r := rng.Float64()
		k := int(z.start[int(r*zipfBuckets)])
		for k > 0 && z.band[k-1].lo < r {
			k--
			steps++
		}
		if b := z.band[k]; b.lo < r && r < b.hi {
			decided++
		}
	}
	share, perDraw := float64(decided)/n, float64(steps)/n
	t.Logf("table decides %.4f of draws, %.3f bucket steps per draw", share, perDraw)
	if share < 0.98 || perDraw > 0.5 {
		t.Errorf("table decides %.4f of draws with %.3f steps each, want ≥ 0.98 and ≤ 0.5", share, perDraw)
	}
}

// FuzzZipfDraw checks one whole draw against rand.Zipf, clamped to imax,
// from the same scripted source. The fuzzer picks the skew, the region,
// the first Int63 (near a table bound: band pick/2 mod the table's
// length, its lo or hi by pick's low bit, moved by delta steps of 2^-63;
// or pick·2^31 + delta without a table) and the stream after it.
func FuzzZipfDraw(f *testing.F) {
	f.Fuzz(func(t *testing.T, q float64, imax uint16, pick uint32, delta int16, rest uint64) {
		if !(q > 1) || math.IsInf(q, 1) {
			return // outside what the generators' Validate accepts
		}
		z := newZipfDraw(q, uint64(imax))
		first := int64(pick)<<31 + int64(delta)
		if z.band != nil {
			b := z.band[int(pick>>1)%len(z.band)]
			bound := b.lo
			if pick&1 == 1 {
				bound = b.hi
			}
			if !(bound >= 0 && bound < 1) {
				return
			}
			first = int64(math.Ldexp(bound, 63)) + int64(delta)
		}
		if first < 0 {
			return // not an Int63 value
		}
		scriptedDraw(t, z, q, uint64(imax), first, rest)
	})
}
