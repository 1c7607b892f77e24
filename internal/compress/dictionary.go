package compress

import (
	"encoding/binary"
	"fmt"
)

// DictLinkCodec is a value-locality link compressor in the style of
// Thuresson, Spracklen & Stenström ("Memory-Link Compression Schemes: A
// Value Locality Perspective"), the paper's citation for the LC technique.
// Both link endpoints maintain an identical move-to-front dictionary of
// recently seen 32-bit words; each transferred word is encoded as either
// a dictionary index (hit) or a raw word that both sides then insert.
//
// Wire format per 32-bit word (MSB-first bits):
//
//	1 iiiiii      dictionary hit at index i (6 bits, 64 entries)
//	0 w[32]       miss: raw word, inserted at the dictionary front
//
// Unlike the stateless FPC LinkCodec, this codec exploits locality
// *across* lines, which is exactly the effect the cited work measures.
type DictLinkCodec struct {
	LineBytes int
	encDict   *mtfDict
	decDict   *mtfDict
	rawBits   uint64
	wireBits  uint64
}

// dictEntries is the dictionary size (indexes fit 6 bits).
const dictEntries = 64

// mtfDict is a move-to-front dictionary of 32-bit words.
type mtfDict struct {
	words [dictEntries]uint32
	used  int
}

// find returns the index of w, or -1.
func (d *mtfDict) find(w uint32) int {
	for i := 0; i < d.used; i++ {
		if d.words[i] == w {
			return i
		}
	}
	return -1
}

// touch moves the entry at index i to the front.
func (d *mtfDict) touch(i int) {
	w := d.words[i]
	copy(d.words[1:i+1], d.words[:i])
	d.words[0] = w
}

// insert pushes w at the front, evicting the last entry when full.
func (d *mtfDict) insert(w uint32) {
	if d.used < dictEntries {
		d.used++
	}
	copy(d.words[1:d.used], d.words[:d.used-1])
	d.words[0] = w
}

// NewDictLinkCodec builds a codec for the given line size (multiple of 4).
func NewDictLinkCodec(lineBytes int) (*DictLinkCodec, error) {
	if lineBytes <= 0 || lineBytes%4 != 0 {
		return nil, fmt.Errorf("compress: dict codec needs a positive multiple of 4 bytes, got %d", lineBytes)
	}
	return &DictLinkCodec{
		LineBytes: lineBytes,
		encDict:   &mtfDict{},
		decDict:   &mtfDict{},
	}, nil
}

// Encode compresses one line for transfer. The encoder's dictionary state
// advances; frames must be decoded in order.
func (c *DictLinkCodec) Encode(line []byte) ([]byte, error) {
	if len(line) != c.LineBytes {
		return nil, fmt.Errorf("compress: line is %d bytes, codec expects %d", len(line), c.LineBytes)
	}
	var w bitWriter
	for i := 0; i+4 <= len(line); i += 4 {
		word := binary.LittleEndian.Uint32(line[i:])
		if idx := c.encDict.find(word); idx >= 0 {
			w.WriteBits(1, 1)
			w.WriteBits(uint64(idx), 6)
			c.encDict.touch(idx)
		} else {
			w.WriteBits(0, 1)
			w.WriteBits(uint64(word), 32)
			c.encDict.insert(word)
		}
	}
	c.rawBits += uint64(c.LineBytes * 8)
	c.wireBits += uint64(w.Bits())
	return w.Bytes(), nil
}

// Decode reconstructs the next line from a frame produced by Encode. The
// decoder's dictionary mirrors the encoder's, so ordering matters.
func (c *DictLinkCodec) Decode(frame []byte) ([]byte, error) {
	r := bitReader{buf: frame}
	out := make([]byte, c.LineBytes)
	for i := 0; i+4 <= c.LineBytes; i += 4 {
		tag, err := r.ReadBits(1)
		if err != nil {
			return nil, err
		}
		var word uint32
		if tag == 1 {
			idx, err := r.ReadBits(6)
			if err != nil {
				return nil, err
			}
			if int(idx) >= c.decDict.used {
				return nil, fmt.Errorf("compress: dictionary index %d out of range (used %d)", idx, c.decDict.used)
			}
			word = c.decDict.words[idx]
			c.decDict.touch(int(idx))
		} else {
			raw, err := r.ReadBits(32)
			if err != nil {
				return nil, err
			}
			word = uint32(raw)
			c.decDict.insert(word)
		}
		binary.LittleEndian.PutUint32(out[i:], word)
	}
	return out, nil
}

// Ratio returns raw bits / wire bits over all lines encoded so far.
func (c *DictLinkCodec) Ratio() float64 {
	if c.wireBits == 0 {
		return 1
	}
	return float64(c.rawBits) / float64(c.wireBits)
}
