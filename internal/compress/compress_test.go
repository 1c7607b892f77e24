package compress

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitWriterReader(t *testing.T) {
	var w bitWriter
	w.WriteBits(0b101, 3)
	w.WriteBits(0xff, 8)
	w.WriteBits(0, 1)
	w.WriteBits(0xdeadbeef, 32)
	if w.Bits() != 44 {
		t.Errorf("bits = %d, want 44", w.Bits())
	}
	r := bitReader{buf: w.Bytes()}
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Errorf("first read = %b", v)
	}
	if v, _ := r.ReadBits(8); v != 0xff {
		t.Errorf("second read = %x", v)
	}
	if v, _ := r.ReadBits(1); v != 0 {
		t.Errorf("third read = %d", v)
	}
	if v, _ := r.ReadBits(32); v != 0xdeadbeef {
		t.Errorf("fourth read = %x", v)
	}
	if _, err := r.ReadBits(8); err == nil {
		t.Error("read past end succeeded")
	}
}

func TestSignExtendHelpers(t *testing.T) {
	if got := signExtend(0xf, 4); got != 0xffffffff {
		t.Errorf("signExtend(0xf,4) = %#x", got)
	}
	if got := signExtend(0x7, 4); got != 7 {
		t.Errorf("signExtend(0x7,4) = %#x", got)
	}
	if !fitsSigned(0xffffffff, 4) { // -1
		t.Error("-1 must fit 4 bits")
	}
	if fitsSigned(8, 4) { // 8 needs 5 bits signed
		t.Error("8 must not fit 4 bits signed")
	}
	if !halfFitsSigned(0xffa5) || !halfFitsSigned(0x0042) || halfFitsSigned(0x1234) {
		t.Error("halfFitsSigned misclassifies")
	}
}

func mkWords(ws ...uint32) []byte {
	out := make([]byte, 4*len(ws))
	for i, w := range ws {
		binary.LittleEndian.PutUint32(out[i*4:], w)
	}
	return out
}

func TestFPCPatternSizes(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		bits int
	}{
		{"zero run", mkWords(0, 0, 0, 0), 3 + 3},
		{"two zero runs of 8+1", mkWords(0, 0, 0, 0, 0, 0, 0, 0, 0), (3 + 3) * 2},
		{"4-bit", mkWords(7), 3 + 4},
		{"4-bit negative", mkWords(0xffffffff), 3 + 4},
		{"8-bit", mkWords(100), 3 + 8},
		{"16-bit", mkWords(30000), 3 + 16},
		{"zero padded", mkWords(0xabcd0000), 3 + 16},
		{"half sign", mkWords(0x00420013), 3 + 16},
		{"repeated", mkWords(0xabababab), 3 + 8},
		{"uncompressed", mkWords(0x12345678), 3 + 32},
	}
	for _, tc := range cases {
		bits, err := FPCCompressedBits(tc.data)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if bits != tc.bits {
			t.Errorf("%s: %d bits, want %d", tc.name, bits, tc.bits)
		}
	}
}

func TestFPCRejectsPartialWords(t *testing.T) {
	if _, err := FPCCompressedBits(make([]byte, 7)); err == nil {
		t.Error("partial word accepted")
	}
}

func TestFPCRoundTripPatterns(t *testing.T) {
	cases := [][]byte{
		mkWords(0, 0, 0, 0, 0, 0, 0, 0, 0, 0), // long zero run splits at 8
		mkWords(7, 0xffffffff, 100, 30000, 0xabcd0000, 0x00420013, 0xabababab, 0x12345678),
		mkWords(0xffffff85, 0x0000007f, 0xffff8000),
		GenerateLine(KindRandom, 64, rand.New(rand.NewSource(3))),
	}
	for i, data := range cases {
		stream, _, err := FPCEncode(data)
		if err != nil {
			t.Fatalf("case %d encode: %v", i, err)
		}
		back, err := FPCDecode(stream, len(data)/4)
		if err != nil {
			t.Fatalf("case %d decode: %v", i, err)
		}
		if !bytes.Equal(back, data) {
			t.Errorf("case %d: round trip mismatch\n got %x\nwant %x", i, back, data)
		}
	}
}

func TestFPCQuickRoundTrip(t *testing.T) {
	prop := func(raw []byte) bool {
		data := raw[:len(raw)/4*4]
		if len(data) == 0 {
			return true
		}
		stream, _, err := FPCEncode(data)
		if err != nil {
			return false
		}
		back, err := FPCDecode(stream, len(data)/4)
		return err == nil && bytes.Equal(back, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFPCRatioBounds(t *testing.T) {
	ratio := func(data []byte) float64 {
		bits, err := FPCCompressedBits(data)
		if err != nil {
			t.Fatal(err)
		}
		return float64(len(data)*8) / float64(bits)
	}
	r := ratio(make([]byte, 64))
	// 16 zero words = 2 runs of 8 = 12 bits vs 512: ratio ≈ 42.7.
	if r < 40 {
		t.Errorf("zero-line ratio = %v, want > 40", r)
	}
	random := GenerateLine(KindRandom, 64, rand.New(rand.NewSource(1)))
	r = ratio(random)
	// Random data costs 35 bits per 32-bit word: ratio ≈ 0.914.
	if r > 1.0 {
		t.Errorf("random ratio = %v, want ≤ 1 (FPC adds prefixes)", r)
	}
}

func TestBDIZerosAndRepeated(t *testing.T) {
	res, err := BDICompress(make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	if res.Encoding != BDIZeros || res.SizeBytes != 1 {
		t.Errorf("zeros: %+v", res)
	}
	line := make([]byte, 64)
	for i := 0; i < 64; i += 8 {
		binary.LittleEndian.PutUint64(line[i:], 0xdeadbeefcafebabe)
	}
	res, err = BDICompress(line)
	if err != nil {
		t.Fatal(err)
	}
	if res.Encoding != BDIRepeated || res.SizeBytes != 8 {
		t.Errorf("repeated: %+v", res)
	}
	back, err := BDIDecompress(res, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, line) {
		t.Error("repeated round trip failed")
	}
}

func TestBDIPointerLine(t *testing.T) {
	// Pointers sharing a base compress to base8-delta form.
	line := make([]byte, 64)
	base := uint64(0x00007f0012340000)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(line[i*8:], base+uint64(i*15))
	}
	res, err := BDICompress(line)
	if err != nil {
		t.Fatal(err)
	}
	if res.Encoding != BDIBase8Delta1 {
		t.Errorf("encoding = %v, want base8Δ1", res.Encoding)
	}
	if res.SizeBytes != 8+8 {
		t.Errorf("size = %d, want 16", res.SizeBytes)
	}
	back, err := BDIDecompress(res, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, line) {
		t.Error("pointer round trip failed")
	}
}

func TestBDINegativeDeltas(t *testing.T) {
	line := make([]byte, 64)
	base := uint64(1000)
	offsets := []int64{0, -50, 100, -100, 30, 7, -7, 90}
	for i, d := range offsets {
		binary.LittleEndian.PutUint64(line[i*8:], base+uint64(d))
	}
	res, err := BDICompress(line)
	if err != nil {
		t.Fatal(err)
	}
	if res.Encoding == BDIUncompressed {
		t.Fatal("negative small deltas should compress")
	}
	back, err := BDIDecompress(res, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, line) {
		t.Errorf("negative-delta round trip failed: %v", res.Encoding)
	}
}

func TestBDIIncompressible(t *testing.T) {
	line := GenerateLine(KindRandom, 64, rand.New(rand.NewSource(7)))
	res, err := BDICompress(line)
	if err != nil {
		t.Fatal(err)
	}
	if res.Encoding != BDIUncompressed || res.SizeBytes != 64 {
		t.Errorf("random: %+v", res)
	}
	if _, err := BDIDecompress(res, 64); err == nil {
		t.Error("decompressing an uncompressed marker must error")
	}
}

func TestBDIValidation(t *testing.T) {
	if _, err := BDICompress(nil); err == nil {
		t.Error("empty line accepted")
	}
	if _, err := BDICompress(make([]byte, 60)); err == nil {
		t.Error("non-multiple-of-8 accepted")
	}
}

func TestBDIQuickRoundTrip(t *testing.T) {
	prop := func(seed int64, kind8 uint8) bool {
		kind := AllKinds[int(kind8)%len(AllKinds)]
		line := GenerateLine(kind, 64, rand.New(rand.NewSource(seed)))
		res, err := BDICompress(line)
		if err != nil {
			return false
		}
		if res.Encoding == BDIUncompressed {
			return true // nothing to round trip
		}
		back, err := BDIDecompress(res, 64)
		return err == nil && bytes.Equal(back, line)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBDIEncodingString(t *testing.T) {
	for _, e := range []BDIEncoding{BDIZeros, BDIRepeated, BDIBase8Delta1, BDIBase8Delta2,
		BDIBase8Delta4, BDIBase4Delta1, BDIBase4Delta2, BDIBase2Delta1, BDIUncompressed} {
		if e.String() == "" {
			t.Errorf("encoding %d has empty name", e)
		}
	}
	if BDIEncoding(99).String() == "" {
		t.Error("unknown encoding must stringify")
	}
}

func TestLinkCodecRoundTrip(t *testing.T) {
	c, err := NewLinkCodec(64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, kind := range AllKinds {
		line := GenerateLine(kind, 64, rng)
		frame, err := c.Encode(line)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		back, err := c.Decode(frame)
		if err != nil {
			t.Fatalf("%v decode: %v", kind, err)
		}
		if !bytes.Equal(back, line) {
			t.Errorf("%v: round trip mismatch", kind)
		}
	}
	if c.Ratio() <= 1 {
		t.Errorf("mixed-kind ratio = %v, want > 1", c.Ratio())
	}
}

func TestLinkCodecValidation(t *testing.T) {
	if _, err := NewLinkCodec(0); err == nil {
		t.Error("zero line size accepted")
	}
	if _, err := NewLinkCodec(66); err == nil {
		t.Error("non-multiple-of-4 accepted")
	}
	c, _ := NewLinkCodec(64)
	if _, err := c.Encode(make([]byte, 32)); err == nil {
		t.Error("wrong line length accepted")
	}
	if _, err := c.Decode([]byte{1}); err == nil {
		t.Error("short frame accepted")
	}
	if _, err := c.Decode(make([]byte, 10)); err == nil {
		t.Error("inconsistent frame accepted")
	}
}

func TestLinkCodecWorstCaseBounded(t *testing.T) {
	c, _ := NewLinkCodec(64)
	line := GenerateLine(KindRandom, 64, rand.New(rand.NewSource(9)))
	frame, err := c.Encode(line)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) > 66 {
		t.Errorf("worst-case frame = %d bytes, want ≤ 66", len(frame))
	}
}

// TestMeasuredRatiosMatchPaperWindow grounds Table 2: the realistic 2x
// assumption for commercial data, lower for floating point, higher for
// integer-heavy data — the ordering and rough window the paper cites from
// the compression literature.
func TestMeasuredRatiosMatchPaperWindow(t *testing.T) {
	fpcComm, bdiComm, err := MeasureRatios(CommercialMix(), 64, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	fpcInt, _, err := MeasureRatios(IntegerMix(), 64, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	fpcFp, _, err := MeasureRatios(FloatMix(), 64, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("FPC ratios: commercial %.2f, integer %.2f, float %.2f; BDI commercial %.2f",
		fpcComm, fpcInt, fpcFp, bdiComm)
	if fpcComm < 1.4 || fpcComm > 3.5 {
		t.Errorf("commercial FPC ratio %.2f outside the paper's 1.4–3.5 window", fpcComm)
	}
	if !(fpcInt > fpcComm) {
		t.Errorf("integer data (%.2f) should compress better than commercial (%.2f)", fpcInt, fpcComm)
	}
	if !(fpcFp < fpcComm) {
		t.Errorf("float data (%.2f) should compress worse than commercial (%.2f)", fpcFp, fpcComm)
	}
	if fpcFp > 1.4 {
		t.Errorf("float FPC ratio %.2f, want ≤ 1.4 (the pessimistic end)", fpcFp)
	}
	if bdiComm <= 1 {
		t.Errorf("BDI commercial ratio %.2f, want > 1", bdiComm)
	}
}

func TestLineKindString(t *testing.T) {
	for _, k := range AllKinds {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	if LineKind(42).String() == "" {
		t.Error("unknown kind must stringify")
	}
}
