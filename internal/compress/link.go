package compress

import (
	"encoding/binary"
	"fmt"
)

// LinkCodec compresses the stream of cache lines crossing the off-chip
// memory link (§6.2's link compression). Each line is FPC-compressed and
// framed with a 2-byte bit-length header; incompressible lines are sent
// raw with a zero header, so the worst case costs 2 bytes of overhead per
// line. The codec is stateless across lines, matching the paper's framing
// of link compression as applying to each transfer independently.
type LinkCodec struct {
	LineBytes int
	// sent / received accounting for ratio measurement
	rawBytes  uint64
	wireBytes uint64
}

// NewLinkCodec builds a codec for the given line size (a multiple of 4).
func NewLinkCodec(lineBytes int) (*LinkCodec, error) {
	if lineBytes <= 0 || lineBytes%4 != 0 {
		return nil, fmt.Errorf("compress: link codec needs a positive multiple of 4 bytes, got %d", lineBytes)
	}
	return &LinkCodec{LineBytes: lineBytes}, nil
}

// Encode compresses one line for transfer, returning the wire frame.
func (c *LinkCodec) Encode(line []byte) ([]byte, error) {
	if len(line) != c.LineBytes {
		return nil, fmt.Errorf("compress: line is %d bytes, codec expects %d", len(line), c.LineBytes)
	}
	stream, bits, err := FPCEncode(line)
	if err != nil {
		return nil, err
	}
	c.rawBytes += uint64(c.LineBytes)
	compressedBytes := (bits + 7) / 8
	var frame []byte
	if compressedBytes >= c.LineBytes {
		// Incompressible: send raw, header 0.
		frame = make([]byte, 2+c.LineBytes)
		copy(frame[2:], line)
	} else {
		frame = make([]byte, 2+compressedBytes)
		binary.BigEndian.PutUint16(frame, uint16(bits))
		copy(frame[2:], stream[:compressedBytes])
	}
	c.wireBytes += uint64(len(frame))
	return frame, nil
}

// Decode reconstructs a line from a wire frame produced by Encode.
func (c *LinkCodec) Decode(frame []byte) ([]byte, error) {
	if len(frame) < 2 {
		return nil, fmt.Errorf("compress: frame shorter than header")
	}
	bits := binary.BigEndian.Uint16(frame)
	if bits == 0 {
		if len(frame) != 2+c.LineBytes {
			return nil, fmt.Errorf("compress: raw frame is %d bytes, want %d", len(frame), 2+c.LineBytes)
		}
		out := make([]byte, c.LineBytes)
		copy(out, frame[2:])
		return out, nil
	}
	want := (int(bits) + 7) / 8
	if len(frame) != 2+want {
		return nil, fmt.Errorf("compress: frame payload is %d bytes, header says %d bits", len(frame)-2, bits)
	}
	return FPCDecode(frame[2:], c.LineBytes/4)
}

// Ratio returns raw bytes / wire bytes over all lines encoded so far —
// the effective-bandwidth multiplier the LC technique model consumes.
func (c *LinkCodec) Ratio() float64 {
	if c.wireBytes == 0 {
		return 1
	}
	return float64(c.rawBytes) / float64(c.wireBytes)
}
