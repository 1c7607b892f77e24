package suite

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func TestPaperSuiteShape(t *testing.T) {
	if len(Paper) != 9 {
		t.Fatalf("suite has %d entries, want 9 (the Fig 1 legend)", len(Paper))
	}
	names := map[string]bool{}
	for _, w := range Paper {
		if names[w.Name] {
			t.Errorf("duplicate name %q", w.Name)
		}
		names[w.Name] = true
		if !w.Phased && (w.TargetAlpha < 0.2 || w.TargetAlpha > 0.7) {
			t.Errorf("%s: α = %v outside Hartstein's range", w.Name, w.TargetAlpha)
		}
	}
}

func TestPaperExtremes(t *testing.T) {
	o2, ok := byName("OLTP-2")
	if !ok || o2.TargetAlpha != 0.36 {
		t.Errorf("OLTP-2 = %+v (paper: smallest commercial α, 0.36)", o2)
	}
	o4, ok := byName("OLTP-4")
	if !ok || o4.TargetAlpha != 0.62 {
		t.Errorf("OLTP-4 = %+v (paper: largest commercial α, 0.62)", o4)
	}
	spec, ok := byName("SPEC2006 (avg)")
	if !ok || spec.TargetAlpha != 0.25 {
		t.Errorf("SPEC2006 avg = %+v (paper: 0.25)", spec)
	}
}

func TestCommercialAverageMatchesPaper(t *testing.T) {
	var sum float64
	count := map[Class]int{}
	for _, w := range Paper {
		count[w.Class]++
		if w.Class == Commercial {
			sum += w.TargetAlpha
		}
	}
	if avg := sum / float64(count[Commercial]); math.Abs(avg-0.48) > 0.015 {
		t.Errorf("commercial average α = %v, want ≈0.48 (the paper's fit)", avg)
	}
	if got := count[Commercial]; got != 7 {
		t.Errorf("commercial workloads = %d, want 7", got)
	}
	if got := count[SPEC2006]; got != 2 {
		t.Errorf("SPEC2006 workloads = %d, want 2", got)
	}
}

func TestBuildGenerators(t *testing.T) {
	opts := DefaultBuildOptions()
	opts.FootprintLines = 1 << 14 // keep the test light
	opts.PhasedLines = 1024
	opts.PhasedDwell = 10_000
	for _, w := range Paper {
		g, err := w.Build(opts)
		if err != nil {
			t.Errorf("%s: %v", w.Name, err)
			continue
		}
		as := trace.Collect(g, 5000)
		st := trace.Measure(as)
		if st.Accesses != 5000 {
			t.Errorf("%s: bad stream", w.Name)
		}
		if math.Abs(st.WriteFraction()-w.WriteFraction) > 0.06 {
			t.Errorf("%s: write fraction %v, want ≈%v", w.Name, st.WriteFraction(), w.WriteFraction)
		}
	}
}

func TestBuildDeterministicButDistinct(t *testing.T) {
	opts := DefaultBuildOptions()
	opts.FootprintLines = 1 << 12
	mk := func(name string) []trace.Access {
		w, ok := byName(name)
		if !ok {
			t.Fatal("missing workload")
		}
		g, err := w.Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		return trace.Collect(g, 500)
	}
	a1, a2 := mk("OLTP-1"), mk("OLTP-1")
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same workload not deterministic")
		}
	}
	b := mk("OLTP-3")
	same := true
	for i := range a1 {
		if a1[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("distinct workloads produced identical streams")
	}
}

func TestBuildValidation(t *testing.T) {
	w := Paper[0]
	if _, err := w.Build(BuildOptions{}); err == nil {
		t.Error("zero options accepted")
	}
}

// byName is the suite entry with the given name.
func byName(name string) (Workload, bool) {
	for _, w := range Paper {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}
