package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// LineKind labels a synthetic cache-line content class. The classes follow
// the value-locality taxonomy of the compression literature the paper
// cites: zero lines, small integers, pointer arrays sharing high bits,
// floating-point data, repeated values, and incompressible noise.
type LineKind int

const (
	// KindZero is an all-zero line (freshly allocated memory).
	KindZero LineKind = iota
	// KindSmallInt holds 32-bit integers with small magnitudes.
	KindSmallInt
	// KindPointer holds 64-bit pointers into a common heap region.
	KindPointer
	// KindFloat holds doubles from a narrow numeric range.
	KindFloat
	// KindRepeated holds one 32-bit value repeated.
	KindRepeated
	// KindRandom is incompressible noise.
	KindRandom
)

// String implements fmt.Stringer.
func (k LineKind) String() string {
	switch k {
	case KindZero:
		return "zero"
	case KindSmallInt:
		return "smallint"
	case KindPointer:
		return "pointer"
	case KindFloat:
		return "float"
	case KindRepeated:
		return "repeated"
	case KindRandom:
		return "random"
	default:
		return fmt.Sprintf("LineKind(%d)", int(k))
	}
}

// AllKinds lists every line kind.
var AllKinds = []LineKind{KindZero, KindSmallInt, KindPointer, KindFloat, KindRepeated, KindRandom}

// GenerateLine fills a lineBytes-sized line of the given kind using rng.
func GenerateLine(kind LineKind, lineBytes int, rng *rand.Rand) []byte {
	line := make([]byte, lineBytes)
	switch kind {
	case KindZero:
	case KindSmallInt:
		for i := 0; i+4 <= lineBytes; i += 4 {
			v := int32(rng.Intn(512) - 128) // mostly fits 8–16 bits
			binary.LittleEndian.PutUint32(line[i:], uint32(v))
		}
	case KindPointer:
		heap := uint64(0x00007f3a_00000000)
		for i := 0; i+8 <= lineBytes; i += 8 {
			p := heap + uint64(rng.Intn(1<<20))*8
			binary.LittleEndian.PutUint64(line[i:], p)
		}
	case KindFloat:
		for i := 0; i+8 <= lineBytes; i += 8 {
			f := 1.0 + rng.Float64() // doubles near 1.0 share exponent bits
			binary.LittleEndian.PutUint64(line[i:], math.Float64bits(f))
		}
	case KindRepeated:
		v := rng.Uint32()
		for i := 0; i+4 <= lineBytes; i += 4 {
			binary.LittleEndian.PutUint32(line[i:], v)
		}
	case KindRandom:
		rng.Read(line)
	}
	return line
}

// WorkloadMix describes a distribution over line kinds, modeling how
// compressible a workload's data is. Weights need not sum to 1.
type WorkloadMix map[LineKind]float64

// CommercialMix approximates commercial-workload value locality: many
// zeros and small integers, plenty of pointers — the regime in which the
// literature reports ~2x compression (the paper's realistic assumption).
func CommercialMix() WorkloadMix {
	return WorkloadMix{
		KindZero:     0.20,
		KindSmallInt: 0.30,
		KindPointer:  0.25,
		KindRepeated: 0.10,
		KindFloat:    0.05,
		KindRandom:   0.10,
	}
}

// IntegerMix approximates SPECint-like data (the optimistic end).
func IntegerMix() WorkloadMix {
	return WorkloadMix{
		KindZero:     0.25,
		KindSmallInt: 0.45,
		KindRepeated: 0.15,
		KindPointer:  0.10,
		KindRandom:   0.05,
	}
}

// FloatMix approximates SPECfp-like data (the pessimistic end: floating
// point mantissas barely compress).
func FloatMix() WorkloadMix {
	return WorkloadMix{
		KindFloat:  0.70,
		KindRandom: 0.20,
		KindZero:   0.10,
	}
}

// SampleKind draws a line kind from the mix.
func (m WorkloadMix) SampleKind(rng *rand.Rand) LineKind {
	var total float64
	for _, w := range m {
		total += w
	}
	u := rng.Float64() * total
	for _, k := range AllKinds {
		w, ok := m[k]
		if !ok {
			continue
		}
		if u < w {
			return k
		}
		u -= w
	}
	return KindRandom
}

// MeasureRatios generates n lines from the mix and returns the average FPC
// and BDI compression ratios (original/compressed, by total bytes).
func MeasureRatios(m WorkloadMix, lineBytes, n int, seed int64) (fpc, bdi float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	var rawBits, fpcBits, bdiBytes, rawBytes int
	for i := 0; i < n; i++ {
		line := GenerateLine(m.SampleKind(rng), lineBytes, rng)
		fb, err := FPCCompressedBits(line)
		if err != nil {
			return 0, 0, err
		}
		br, err := BDICompress(line)
		if err != nil {
			return 0, 0, err
		}
		rawBits += lineBytes * 8
		fpcBits += fb
		rawBytes += lineBytes
		bdiBytes += br.SizeBytes
	}
	return float64(rawBits) / float64(fpcBits), float64(rawBytes) / float64(bdiBytes), nil
}
