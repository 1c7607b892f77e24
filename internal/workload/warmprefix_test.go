package workload

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/trace"
)

// touch references line in a slice LRU list of at most capacity lines:
// a hit moves it to the top; a miss writes it over the bottom line (or
// appends it while the list has room) and moves it up from there.
func (n *naiveLRU) touch(line uint64, capacity int) {
	i := slices.Index(*n, line)
	if i < 0 {
		if len(*n) < capacity {
			*n = append(*n, 0)
		}
		i = len(*n) - 1
		(*n)[i] = line
	}
	n.moveToFront(i)
}

// TestWarmPrefixIsTheStackTop feeds WarmPrefix's stream to two naive LRU
// caches of n lines, one fully associative and one 8-way with modulo set
// indexing on the address, and checks that each holds exactly what the
// generator's stack implies. The fully associative list must equal the
// stack's top n lines rank for rank, after the prefix and after each of
// 20,000 further draws. Each set must hold, in rank order, the 8
// highest-ranked stack lines whose address maps to it; that is checked
// after the prefix, every 64th draw and the last. The region is offset by
// a fraction of the set count, so set indexing reads the address, not the
// line id. The configuration is fig01's quick one at OLTP-4's α.
func TestWarmPrefixIsTheStackTop(t *testing.T) {
	const footprint, n, ways, draws = 1 << 17, 8192, 8, 20_000
	const sets = n / ways
	cfg := StackDistanceConfig{
		Alpha: 0.62, HotLines: 256, FootprintLines: footprint,
		WriteFraction: 0.35, WritesPerLine: true, Seed: 11,
		TID: 3, Region: 1<<32 + 37*LineBytes,
	}
	g, err := NewStackDistance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := g.WarmPrefix(n)
	if err != nil {
		t.Fatal(err)
	}
	setOf := func(line uint64) uint64 { return (cfg.Region/LineBytes + line) % sets }
	fa := make(naiveLRU, 0, n)
	sa := make([]naiveLRU, sets)
	filled := make([]int, sets)
	var top []uint64
	for i := 0; i < n+draws; i++ {
		a := gen.Next()
		if i < n && (a.Write || a.TID != cfg.TID) {
			t.Fatalf("prefix access %d is %v, want a read by thread %d", i, a, cfg.TID)
		}
		line := (a.Addr - cfg.Region) / LineBytes
		fa.touch(line, n)
		sa[setOf(line)].touch(line, ways)
		if i < n-1 {
			continue
		}
		if top = g.stack.topLines(n, top); !slices.Equal(top, fa) {
			r := 0
			for r < min(len(top), len(fa)) && top[r] == fa[r] {
				r++
			}
			t.Fatalf("access %d: the fully associative list (%d lines) leaves the stack's top %d at rank %d", i, len(fa), n, r)
		}
		if d := i - (n - 1); d%64 != 0 && d != draws {
			continue
		}
		clear(filled)
		full := 0
		top = g.stack.topLines(g.stack.Len(), top)
		for _, line := range top {
			set := setOf(line)
			k := filled[set]
			if k == ways {
				continue
			}
			if k >= len(sa[set]) || sa[set][k] != line {
				t.Fatalf("access %d: set %d leaves the stack's lines for it at way %d", i, set, k)
			}
			if filled[set]++; filled[set] == ways {
				if full++; full == sets {
					break
				}
			}
		}
		if full < sets {
			t.Fatalf("access %d: the stack fills only %d of %d sets", i, full, sets)
		}
	}
}

// TestWarmPrefixLeavesStreamAlone checks that the stream after the prefix
// is the one the generator emits without it, access for access: the
// prefix draws nothing and leaves the stack alone.
func TestWarmPrefixLeavesStreamAlone(t *testing.T) {
	plain, err := NewStackDistance(stackCfg())
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewStackDistance(stackCfg())
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	prefixed, err := g.WarmPrefix(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := trace.Access{Addr: uint64(stackCfg().FootprintLines-n+i) * LineBytes}
		if a := prefixed.Next(); a != want {
			t.Fatalf("prefix access %d = %v, want %v", i, a, want)
		}
	}
	for i := 0; i < 50_000; i++ {
		if a, b := prefixed.Next(), plain.Next(); a != b {
			t.Fatalf("access %d after the prefix = %v, without it %v", i, a, b)
		}
	}
}

func TestWarmPrefixRejects(t *testing.T) {
	fresh := func() *StackDistance {
		g, err := NewStackDistance(stackCfg())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	footprint := stackCfg().FootprintLines
	for _, n := range []int{0, footprint} {
		if _, err := fresh().WarmPrefix(n); err != nil {
			t.Errorf("prefix of %d lines: %v", n, err)
		}
	}
	for _, n := range []int{-1, footprint + 1} {
		if _, err := fresh().WarmPrefix(n); err == nil || !strings.Contains(err.Error(), "warm prefix of") {
			t.Errorf("prefix of %d lines: error %v, want a size error", n, err)
		}
	}
	g := fresh()
	g.Next()
	if _, err := g.WarmPrefix(1); err == nil || !strings.Contains(err.Error(), "after the first Next") {
		t.Errorf("prefix after a draw: error %v, want one naming the first Next", err)
	}
}
