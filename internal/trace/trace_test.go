package trace

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/robust"
)

func TestAccessLine(t *testing.T) {
	a := Access{Addr: 130}
	if a.Line(64) != 2 {
		t.Errorf("Line(64) = %d, want 2", a.Line(64))
	}
	if a.Line(128) != 1 {
		t.Errorf("Line(128) = %d, want 1", a.Line(128))
	}
}

func TestAccessString(t *testing.T) {
	r := Access{Addr: 0x40, TID: 3}
	if s := r.String(); !strings.HasPrefix(s, "R[3]") || !strings.Contains(s, "0x40") {
		t.Errorf("String = %q", s)
	}
	w := Access{Addr: 0x80, Write: true}
	if s := w.String(); !strings.HasPrefix(s, "W[0]") {
		t.Errorf("String = %q", s)
	}
}

type countingGen struct{ n uint64 }

func (g *countingGen) Next() Access {
	g.n++
	return Access{Addr: g.n * 64}
}

func TestCollect(t *testing.T) {
	g := &countingGen{}
	as := Collect(g, 5)
	if len(as) != 5 {
		t.Fatalf("len = %d", len(as))
	}
	for i, a := range as {
		if a.Addr != uint64(i+1)*64 {
			t.Errorf("access %d = %v", i, a)
		}
	}
}

func TestMeasure(t *testing.T) {
	as := []Access{
		{Addr: 0, Write: true, TID: 0},
		{Addr: 64, TID: 1},
		{Addr: 65, TID: 1},  // same line as 64
		{Addr: 640, TID: 2}, // new line
	}
	st := Measure(as)
	if st.Accesses != 4 || st.Writes != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Lines != 3 {
		t.Errorf("Lines = %d, want 3", st.Lines)
	}
	if st.Threads != 3 {
		t.Errorf("Threads = %d, want 3", st.Threads)
	}
	if st.MinAddr != 0 || st.MaxAddr != 640 {
		t.Errorf("addr range [%d, %d]", st.MinAddr, st.MaxAddr)
	}
	if st.WriteFraction() != 0.25 {
		t.Errorf("WriteFraction = %v", st.WriteFraction())
	}
	if st.FootprintBytes() != 3*64 {
		t.Errorf("FootprintBytes = %d", st.FootprintBytes())
	}
}

func TestMeasureEmpty(t *testing.T) {
	st := Measure(nil)
	if st.Accesses != 0 || st.WriteFraction() != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	as := []Access{
		{Addr: 0, Write: true, TID: 0},
		{Addr: 1 << 40, TID: 5},
		{Addr: 64, Write: true, TID: 127},
		{Addr: 0xffffffffffffffff, TID: 1},
		{Addr: 0, TID: 0},
	}
	var buf bytes.Buffer
	if err := Write(&buf, as); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(as) {
		t.Fatalf("len = %d, want %d", len(got), len(as))
	}
	for i := range as {
		if got[i] != as[i] {
			t.Errorf("record %d: %+v, want %+v", i, got[i], as[i])
		}
	}
}

func TestCodecEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %d records", len(got))
	}
}

func TestCodecRejectsBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("XXXX....")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestCodecRejectsTruncated(t *testing.T) {
	as := []Access{{Addr: 64}, {Addr: 128}, {Addr: 192}}
	var buf bytes.Buffer
	if err := Write(&buf, as); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Read(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, err := Read(bytes.NewReader(raw[:2])); err == nil {
		t.Error("header-only stream accepted")
	}
}

func TestCodecRejectsBigTID(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []Access{{TID: 128}}); err == nil {
		t.Error("TID 128 accepted, codec limit is 127")
	}
}

func TestCodecCompactness(t *testing.T) {
	// A sequential trace should cost ~2 bytes per access, far below the
	// 10+ bytes of naive fixed encoding.
	as := make([]Access, 10000)
	for i := range as {
		as[i] = Access{Addr: uint64(i) * 64}
	}
	var buf bytes.Buffer
	if err := Write(&buf, as); err != nil {
		t.Fatal(err)
	}
	perAccess := float64(buf.Len()) / float64(len(as))
	if perAccess > 3.1 {
		t.Errorf("sequential trace costs %.1f bytes/access, want ≤ ~3", perAccess)
	}
}

func TestCodecQuickRoundTrip(t *testing.T) {
	prop := func(addrs []uint64, flags []bool) bool {
		n := len(addrs)
		if len(flags) < n {
			n = len(flags)
		}
		as := make([]Access, n)
		for i := 0; i < n; i++ {
			as[i] = Access{Addr: addrs[i], Write: flags[i], TID: uint8(i % 128)}
		}
		var buf bytes.Buffer
		if err := Write(&buf, as); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != as[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReplayerLoops(t *testing.T) {
	as := []Access{{Addr: 64}, {Addr: 128}}
	r := MustReplayer(as)
	if len(r.accesses) != 2 {
		t.Errorf("len = %d", len(r.accesses))
	}
	want := []uint64{64, 128, 64, 128, 64}
	for i, w := range want {
		if got := r.Next().Addr; got != w {
			t.Errorf("replay %d = %d, want %d", i, got, w)
		}
	}
}

func TestReplayerEmpty(t *testing.T) {
	// The regression this guards: an empty trace used to panic deep inside
	// Next; now it is a typed construction-time error in the taxonomy.
	r, err := NewReplayer(nil)
	if r != nil || !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("NewReplayer(nil) = %v, %v; want nil, ErrEmptyTrace", r, err)
	}
	if !errors.Is(err, robust.ErrDomain) {
		t.Errorf("ErrEmptyTrace does not classify as robust.ErrDomain: %v", err)
	}
	// MustReplayer keeps the panic behavior for static test fixtures, but
	// with the typed sentinel as the panic value.
	defer func() {
		v := recover()
		pe, ok := v.(error)
		if !ok || !errors.Is(pe, ErrEmptyTrace) {
			t.Errorf("MustReplayer(nil) panicked with %v, want ErrEmptyTrace", v)
		}
	}()
	MustReplayer(nil)
}

func TestCollectInto(t *testing.T) {
	g := &countingGen{}
	buf := make([]Access, 4)
	as := CollectInto(g, buf)
	if &as[0] != &buf[0] {
		t.Error("CollectInto did not fill the caller's buffer")
	}
	for i, a := range as {
		if a.Addr != uint64(i+1)*64 {
			t.Errorf("access %d = %v", i, a)
		}
	}
	// Refilling the same buffer continues the stream with no new slice.
	as = CollectInto(g, buf)
	if as[0].Addr != 5*64 {
		t.Errorf("refill starts at %d, want %d", as[0].Addr, 5*64)
	}
	if CollectInto(g, nil) != nil {
		t.Error("CollectInto(g, nil) != nil")
	}
}

func TestReplayerBatch(t *testing.T) {
	as := []Access{{Addr: 64}, {Addr: 128}, {Addr: 192}}
	r := MustReplayer(as)
	b := r.Batch(2)
	if len(b) != 2 || b[0].Addr != 64 || &b[0] != &as[0] {
		t.Fatalf("first batch = %v (zero-copy: %v)", b, &b[0] == &as[0])
	}
	// A batch never crosses the loop boundary; the next one restarts.
	b = r.Batch(5)
	if len(b) != 1 || b[0].Addr != 192 {
		t.Fatalf("tail batch = %v", b)
	}
	b = r.Batch(1)
	if len(b) != 1 || b[0].Addr != 64 {
		t.Fatalf("wrapped batch = %v", b)
	}
	// Batch and Next share the cursor.
	if got := r.Next().Addr; got != 128 {
		t.Fatalf("Next after Batch = %d, want 128", got)
	}
	if r.Batch(0) != nil || r.Batch(-1) != nil {
		t.Error("non-positive max should return nil")
	}
}

func TestMeasurerReuse(t *testing.T) {
	var m Measurer
	first := m.Measure([]Access{{Addr: 0}, {Addr: 64, TID: 1, Write: true}})
	if first.Lines != 2 || first.Threads != 2 || first.Writes != 1 {
		t.Fatalf("first = %+v", first)
	}
	// A second measurement must not see the first one's footprint or TIDs.
	second := m.Measure([]Access{{Addr: 4096}})
	if second.Lines != 1 || second.Threads != 1 || second.Writes != 0 {
		t.Fatalf("second = %+v", second)
	}
	if second.MinAddr != 4096 || second.MaxAddr != 4096 {
		t.Fatalf("second addr range [%d, %d]", second.MinAddr, second.MaxAddr)
	}
	if got := m.Measure(nil); got.Accesses != 0 {
		t.Fatalf("empty = %+v", got)
	}
}

func TestMeasurerMatchesMeasure(t *testing.T) {
	g := &countingGen{}
	as := Collect(g, 100)
	as[10].Write = true
	as[20].TID = 3
	var m Measurer
	m.Measure([]Access{{Addr: 1 << 40}}) // dirty the scratch state first
	if got, want := m.Measure(as), Measure(as); got != want {
		t.Fatalf("Measurer = %+v, Measure = %+v", got, want)
	}
}
