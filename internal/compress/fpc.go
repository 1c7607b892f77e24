package compress

import (
	"encoding/binary"
	"fmt"
)

// FPC pattern prefixes (3 bits each), per Alameldeen & Wood's frequent
// pattern compression. Each 32-bit word is encoded as a prefix plus a
// variable payload.
const (
	fpcZeroRun    = 0 // payload 3 bits: run length − 1 (1..8 zero words)
	fpcSignExt4   = 1 // payload 4 bits
	fpcSignExt8   = 2 // payload 8 bits
	fpcSignExt16  = 3 // payload 16 bits
	fpcZeroPadded = 4 // payload 16 bits: halfword in the high half, low half zero
	fpcHalfSign   = 5 // payload 16 bits: two halfwords, each sign-extended from a byte
	fpcRepeated   = 6 // payload 8 bits: word of four identical bytes
	fpcUncompress = 7 // payload 32 bits
)

const fpcPrefixBits = 3

// FPCCompressedBits returns the exact size, in bits, of data under FPC.
// len(data) must be a multiple of 4 (32-bit words).
func FPCCompressedBits(data []byte) (int, error) {
	var w bitWriter
	if err := fpcEncode(&w, data); err != nil {
		return 0, err
	}
	return w.Bits(), nil
}

// FPCEncode compresses data (a multiple of 4 bytes, e.g. one cache line)
// and returns the packed bitstream plus its exact bit length.
func FPCEncode(data []byte) ([]byte, int, error) {
	var w bitWriter
	if err := fpcEncode(&w, data); err != nil {
		return nil, 0, err
	}
	return w.Bytes(), w.Bits(), nil
}

func fpcEncode(w *bitWriter, data []byte) error {
	if len(data)%4 != 0 {
		return fmt.Errorf("compress: FPC needs whole 32-bit words, got %d bytes", len(data))
	}
	words := len(data) / 4
	for i := 0; i < words; {
		x := binary.LittleEndian.Uint32(data[i*4:])
		if x == 0 {
			run := 1
			for i+run < words && run < 8 && binary.LittleEndian.Uint32(data[(i+run)*4:]) == 0 {
				run++
			}
			w.WriteBits(fpcZeroRun, fpcPrefixBits)
			w.WriteBits(uint64(run-1), 3)
			i += run
			continue
		}
		switch {
		case fitsSigned(x, 4):
			w.WriteBits(fpcSignExt4, fpcPrefixBits)
			w.WriteBits(uint64(x)&0xf, 4)
		case fitsSigned(x, 8):
			w.WriteBits(fpcSignExt8, fpcPrefixBits)
			w.WriteBits(uint64(x)&0xff, 8)
		case fitsSigned(x, 16):
			w.WriteBits(fpcSignExt16, fpcPrefixBits)
			w.WriteBits(uint64(x)&0xffff, 16)
		case x&0xffff == 0:
			w.WriteBits(fpcZeroPadded, fpcPrefixBits)
			w.WriteBits(uint64(x>>16), 16)
		case halfFitsSigned(x&0xffff) && halfFitsSigned(x>>16):
			w.WriteBits(fpcHalfSign, fpcPrefixBits)
			w.WriteBits(uint64(x>>16)&0xff, 8)
			w.WriteBits(uint64(x)&0xff, 8)
		case isRepeatedBytes(x):
			w.WriteBits(fpcRepeated, fpcPrefixBits)
			w.WriteBits(uint64(x)&0xff, 8)
		default:
			w.WriteBits(fpcUncompress, fpcPrefixBits)
			w.WriteBits(uint64(x), 32)
		}
		i++
	}
	return nil
}

// halfFitsSigned reports whether the 16-bit halfword h equals the 16-bit
// sign extension of its own low byte.
func halfFitsSigned(h uint32) bool {
	return signExtend(uint64(h)&0xff, 8)&0xffff == h
}

// isRepeatedBytes reports whether all four bytes of x are identical.
func isRepeatedBytes(x uint32) bool {
	b := x & 0xff
	return x == b|b<<8|b<<16|b<<24
}

// FPCDecode reconstructs exactly wordCount 32-bit words from an FPC
// bitstream produced by FPCEncode.
func FPCDecode(stream []byte, wordCount int) ([]byte, error) {
	r := bitReader{buf: stream}
	out := make([]byte, 0, wordCount*4)
	emit := func(x uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], x)
		out = append(out, b[:]...)
	}
	for len(out)/4 < wordCount {
		prefix, err := r.ReadBits(fpcPrefixBits)
		if err != nil {
			return nil, err
		}
		switch prefix {
		case fpcZeroRun:
			run, err := r.ReadBits(3)
			if err != nil {
				return nil, err
			}
			for j := uint64(0); j <= run; j++ {
				emit(0)
			}
		case fpcSignExt4, fpcSignExt8, fpcSignExt16:
			bitsN := map[uint64]uint{fpcSignExt4: 4, fpcSignExt8: 8, fpcSignExt16: 16}[prefix]
			v, err := r.ReadBits(bitsN)
			if err != nil {
				return nil, err
			}
			emit(signExtend(v, bitsN))
		case fpcZeroPadded:
			v, err := r.ReadBits(16)
			if err != nil {
				return nil, err
			}
			emit(uint32(v) << 16)
		case fpcHalfSign:
			hi, err := r.ReadBits(8)
			if err != nil {
				return nil, err
			}
			lo, err := r.ReadBits(8)
			if err != nil {
				return nil, err
			}
			emit((signExtend(hi, 8)&0xffff)<<16 | signExtend(lo, 8)&0xffff)
		case fpcRepeated:
			b, err := r.ReadBits(8)
			if err != nil {
				return nil, err
			}
			x := uint32(b)
			emit(x | x<<8 | x<<16 | x<<24)
		case fpcUncompress:
			v, err := r.ReadBits(32)
			if err != nil {
				return nil, err
			}
			emit(uint32(v))
		}
	}
	if len(out) != wordCount*4 {
		return nil, fmt.Errorf("compress: FPC decode overshot: %d words, want %d", len(out)/4, wordCount)
	}
	return out, nil
}
