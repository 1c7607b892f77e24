package power

import (
	"strings"
	"testing"
)

func TestBaselineMatchesPaper(t *testing.T) {
	b := Baseline()
	if b.P != 8 || b.C != 8 {
		t.Fatalf("baseline = %+v, want 8 cores / 8 cache CEAs", b)
	}
	if b.N() != 16 {
		t.Errorf("N = %v, want 16", b.N())
	}
	if b.S() != 1 {
		t.Errorf("S = %v, want 1", b.S())
	}
	if b.CoreAreaFraction() != 0.5 {
		t.Errorf("core area fraction = %v, want 0.5 (balanced design)", b.CoreAreaFraction())
	}
}

func TestNewConfigValidation(t *testing.T) {
	if err := (Config{P: 4, C: 12}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := (Config{P: 4}).Validate(); err != nil {
		t.Errorf("all-cores config rejected: %v", err)
	}
	for _, bad := range []struct{ p, c float64 }{
		{0, 8}, {-1, 8}, {8, -1},
	} {
		if err := (Config{P: bad.p, C: bad.c}).Validate(); err == nil {
			t.Errorf("invalid config (%v, %v) accepted", bad.p, bad.c)
		}
	}
}

func TestConfigString(t *testing.T) {
	s := Baseline().String()
	for _, want := range []string{"P=8", "C=8", "N=16", "S=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}
