package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/robust"
)

// Binary trace format:
//
//	magic   [4]byte  "BWT1"
//	count   uvarint  number of records
//	records: per access
//	    flags   byte    bit0 = write, bits1..7 = TID (0..127)
//	    delta   varint  zig-zag delta of Addr from the previous Addr
//
// Delta encoding keeps sequential and looping traces small (typically
// 2–3 bytes per access instead of 10).

var magic = [4]byte{'B', 'W', 'T', '1'}

// taxonomyError is a sentinel whose Unwrap links it into the robust
// error taxonomy while keeping a clean message.
type taxonomyError struct {
	msg   string
	under error
}

func (e *taxonomyError) Error() string { return e.msg }
func (e *taxonomyError) Unwrap() error { return e.under }

// ErrBadMagic indicates the reader input is not a trace stream. It
// classifies as corrupt-trace (robust.ErrCorruptTrace).
var ErrBadMagic error = &taxonomyError{
	msg:   "trace: bad magic (not a BWT1 stream)",
	under: robust.ErrCorruptTrace,
}

// ErrEmptyTrace is returned by NewReplayer for a zero-length trace: there
// is nothing to replay. It classifies as a domain error.
var ErrEmptyTrace error = &taxonomyError{
	msg:   "trace: cannot replay an empty trace",
	under: robust.ErrDomain,
}

// maxTID is the largest thread id the codec can represent.
const maxTID = 127

// Write encodes accesses to w in the binary trace format.
func Write(w io.Writer, as []Access) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(as)))
	if _, err := bw.Write(buf[:n]); err != nil {
		return err
	}
	var prev uint64
	for _, a := range as {
		if a.TID > maxTID {
			return fmt.Errorf("trace: TID %d exceeds codec limit %d", a.TID, maxTID)
		}
		flags := byte(a.TID) << 1
		if a.Write {
			flags |= 1
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		delta := int64(a.Addr - prev) // wrapping two's-complement delta
		n := binary.PutVarint(buf[:], delta)
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		prev = a.Addr
	}
	return bw.Flush()
}

// Read decodes a trace stream written by Write. Decode failures wrap
// robust.ErrCorruptTrace so the pipeline classifies them permanently.
// The "trace.read" fault-injection point fires before decoding.
func Read(r io.Reader) ([]Access, error) {
	if err := robust.Hit(context.Background(), "trace.read"); err != nil {
		return nil, err
	}
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w: %w", robust.ErrCorruptTrace, err)
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading count: %w: %w", robust.ErrCorruptTrace, err)
	}
	const maxReasonable = 1 << 30
	if count > maxReasonable {
		return nil, fmt.Errorf("trace: unreasonable record count %d: %w", count, robust.ErrCorruptTrace)
	}
	out := make([]Access, 0, count)
	var prev uint64
	for i := uint64(0); i < count; i++ {
		flags, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: record %d flags: %w: %w", i, robust.ErrCorruptTrace, err)
		}
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d delta: %w: %w", i, robust.ErrCorruptTrace, err)
		}
		prev += uint64(delta)
		out = append(out, Access{
			Addr:  prev,
			TID:   flags >> 1,
			Write: flags&1 != 0,
		})
	}
	return out, nil
}

// Replayer replays a recorded trace as a Generator, looping at the end.
type Replayer struct {
	accesses []Access
	pos      int
}

// NewReplayer wraps accesses in a looping Generator. An empty trace
// yields ErrEmptyTrace — there is nothing to replay.
func NewReplayer(accesses []Access) (*Replayer, error) {
	if len(accesses) == 0 {
		return nil, ErrEmptyTrace
	}
	return &Replayer{accesses: accesses}, nil
}

// MustReplayer is NewReplayer for known-non-empty traces; it panics with
// ErrEmptyTrace otherwise. Intended for tests and benchmarks where the
// trace was just materialized.
func MustReplayer(accesses []Access) *Replayer {
	r, err := NewReplayer(accesses)
	if err != nil {
		panic(err)
	}
	return r
}

// Next implements Generator.
func (r *Replayer) Next() Access {
	a := r.accesses[r.pos]
	r.pos++
	if r.pos == len(r.accesses) {
		r.pos = 0
	}
	return a
}

// Batch implements Batcher: it returns a sub-slice of the recorded trace
// without copying, up to the loop boundary. The slice is only valid until
// the replayer is advanced again.
func (r *Replayer) Batch(max int) []Access {
	if max <= 0 {
		return nil
	}
	end := r.pos + max
	if end > len(r.accesses) {
		end = len(r.accesses)
	}
	out := r.accesses[r.pos:end]
	r.pos = end
	if r.pos == len(r.accesses) {
		r.pos = 0
	}
	return out
}
