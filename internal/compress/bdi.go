package compress

import (
	"encoding/binary"
	"fmt"
)

// BDIEncoding identifies which base-delta-immediate layout a line used.
type BDIEncoding int

// The BDI encodings, tried smallest-first. Base8Delta1 means: 8-byte base
// value, each 8-byte word stored as a 1-byte delta from the base.
const (
	BDIZeros BDIEncoding = iota
	BDIRepeated
	BDIBase8Delta1
	BDIBase8Delta2
	BDIBase8Delta4
	BDIBase4Delta1
	BDIBase4Delta2
	BDIBase2Delta1
	BDIUncompressed
)

// String implements fmt.Stringer.
func (e BDIEncoding) String() string {
	switch e {
	case BDIZeros:
		return "zeros"
	case BDIRepeated:
		return "repeated"
	case BDIBase8Delta1:
		return "base8Δ1"
	case BDIBase8Delta2:
		return "base8Δ2"
	case BDIBase8Delta4:
		return "base8Δ4"
	case BDIBase4Delta1:
		return "base4Δ1"
	case BDIBase4Delta2:
		return "base4Δ2"
	case BDIBase2Delta1:
		return "base2Δ1"
	case BDIUncompressed:
		return "uncompressed"
	default:
		return fmt.Sprintf("BDIEncoding(%d)", int(e))
	}
}

// BDIResult describes the best encoding found for a line.
type BDIResult struct {
	Encoding BDIEncoding
	// SizeBytes is the compressed size including the base value; a 1-byte
	// metadata tag is accounted separately by callers that need framing.
	SizeBytes int
	// Base is the base value (zero for BDIZeros/BDIUncompressed).
	Base uint64
	// Deltas holds the per-word deltas (empty unless a base-delta form won).
	Deltas []int64
}

// bdiLayout describes one base-delta geometry.
type bdiLayout struct {
	enc       BDIEncoding
	baseBytes int
	deltaByte int
}

var bdiLayouts = []bdiLayout{
	{BDIBase8Delta1, 8, 1},
	{BDIBase4Delta1, 4, 1},
	{BDIBase8Delta2, 8, 2},
	{BDIBase2Delta1, 2, 1},
	{BDIBase4Delta2, 4, 2},
	{BDIBase8Delta4, 8, 4},
}

// BDICompress finds the smallest BDI representation of a line. The line
// length must be a multiple of 8.
func BDICompress(line []byte) (BDIResult, error) {
	if len(line) == 0 || len(line)%8 != 0 {
		return BDIResult{}, fmt.Errorf("compress: BDI needs a multiple of 8 bytes, got %d", len(line))
	}
	if allZero(line) {
		return BDIResult{Encoding: BDIZeros, SizeBytes: 1}, nil
	}
	if v, ok := repeated8(line); ok {
		return BDIResult{Encoding: BDIRepeated, SizeBytes: 8, Base: v}, nil
	}
	best := BDIResult{Encoding: BDIUncompressed, SizeBytes: len(line)}
	for _, l := range bdiLayouts {
		res, ok := tryBDI(line, l)
		if ok && res.SizeBytes < best.SizeBytes {
			best = res
		}
	}
	return best, nil
}

// tryBDI attempts one geometry: the base is the first word; every word's
// delta from the base must fit the delta width.
func tryBDI(line []byte, l bdiLayout) (BDIResult, bool) {
	words := len(line) / l.baseBytes
	base := readWord(line, 0, l.baseBytes)
	deltas := make([]int64, words)
	limitHi := int64(1)<<(uint(l.deltaByte)*8-1) - 1
	limitLo := -int64(1) << (uint(l.deltaByte)*8 - 1)
	for i := 0; i < words; i++ {
		w := readWord(line, i, l.baseBytes)
		d := int64(w - base) // wrapping subtraction in the word's width
		d = signedInWidth(d, l.baseBytes)
		if d > limitHi || d < limitLo {
			return BDIResult{}, false
		}
		deltas[i] = d
	}
	return BDIResult{
		Encoding:  l.enc,
		SizeBytes: l.baseBytes + words*l.deltaByte,
		Base:      base,
		Deltas:    deltas,
	}, true
}

// BDIDecompress reconstructs the original line from a BDIResult, given the
// original line length.
func BDIDecompress(res BDIResult, lineBytes int) ([]byte, error) {
	out := make([]byte, lineBytes)
	switch res.Encoding {
	case BDIZeros:
		return out, nil
	case BDIRepeated:
		for i := 0; i+8 <= lineBytes; i += 8 {
			binary.LittleEndian.PutUint64(out[i:], res.Base)
		}
		return out, nil
	case BDIUncompressed:
		return nil, fmt.Errorf("compress: uncompressed BDI carries no data to expand")
	}
	var baseBytes int
	for _, l := range bdiLayouts {
		if l.enc == res.Encoding {
			baseBytes = l.baseBytes
		}
	}
	if baseBytes == 0 {
		return nil, fmt.Errorf("compress: unknown BDI encoding %v", res.Encoding)
	}
	if len(res.Deltas)*baseBytes != lineBytes {
		return nil, fmt.Errorf("compress: %d deltas cannot fill %d bytes", len(res.Deltas), lineBytes)
	}
	for i, d := range res.Deltas {
		writeWord(out, i, baseBytes, res.Base+uint64(d))
	}
	return out, nil
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// repeated8 reports whether the line is one 8-byte value repeated.
func repeated8(line []byte) (uint64, bool) {
	v := binary.LittleEndian.Uint64(line)
	for i := 8; i+8 <= len(line); i += 8 {
		if binary.LittleEndian.Uint64(line[i:]) != v {
			return 0, false
		}
	}
	return v, true
}

// readWord extracts word i of the given width, zero-extended.
func readWord(line []byte, i, width int) uint64 {
	off := i * width
	switch width {
	case 2:
		return uint64(binary.LittleEndian.Uint16(line[off:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(line[off:]))
	default:
		return binary.LittleEndian.Uint64(line[off:])
	}
}

// writeWord stores the low `width` bytes of v as word i.
func writeWord(line []byte, i, width int, v uint64) {
	off := i * width
	switch width {
	case 2:
		binary.LittleEndian.PutUint16(line[off:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(line[off:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(line[off:], v)
	}
}

// signedInWidth reinterprets d (a wrapping difference computed in 64 bits)
// as a signed value in the given byte width.
func signedInWidth(d int64, width int) int64 {
	switch width {
	case 2:
		return int64(int16(d))
	case 4:
		return int64(int32(d))
	default:
		return d
	}
}
