package media

import (
	"container/heap"
	"fmt"
	"sort"
)

// This file implements canonical Huffman coding: code construction from
// symbol frequencies with deterministic tie-breaking, plus an encoder
// table and a length-indexed canonical decoder. It is the entropy-coding
// substrate for the run/level VLC of the codec (vlc.go), standing in for
// the fixed MPEG-2 VLC tables.

// huffNode is a node of the Huffman construction forest.
type huffNode struct {
	weight      uint64
	seq         int // creation order: deterministic tie-break
	symbol      int // leaf symbol, -1 for internal
	left, right *huffNode
}

type huffHeap []*huffNode

func (h huffHeap) Len() int { return len(h) }
func (h huffHeap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight < h[j].weight
	}
	return h[i].seq < h[j].seq
}
func (h huffHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *huffHeap) Push(x interface{}) { *h = append(*h, x.(*huffNode)) }
func (h *huffHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// HuffCode is one symbol's canonical code.
type HuffCode struct {
	Bits uint32 // code value, MSB-aligned to Len
	Len  uint8  // code length in bits; 0 means the symbol is unused
}

// huffLUTBits bounds the width of each decode LUT level: a code of up to
// min(maxLen, huffLUTBits) bits resolves with one table load, and each
// further level adds one load for up to huffLUTBits more bits.
const huffLUTBits = 12

// huffLUTSub flags a LUT entry that points to a further level.
const huffLUTSub = 0x40

// HuffTable holds canonical Huffman codes for symbols 0..n-1 and supports
// encoding and decoding. Build tables with NewHuffTable.
type HuffTable struct {
	codes  []HuffCode
	maxLen uint8
	// canonical decode structures, indexed by code length:
	// firstCode[l] is the value of the first (smallest) code of length l,
	// firstIdx[l] the index into symByCode of that code's symbol.
	firstCode []uint32
	firstIdx  []int
	count     []int // number of codes of each length
	symByCode []int // symbols sorted by (length, code)

	// Decode LUT. Its first level, lut[:1<<lutBits], is indexed by the
	// next lutBits bits of the stream. A leaf packs sym<<8 | len (len ≤ 32,
	// so the flag bit is clear). The entry for a prefix of longer codes
	// packs base<<8 | huffLUTSub | width: a further block at lut[base:],
	// indexed by the next width = min(maxLen−depth, huffLUTBits) bits (for
	// the run/level table, 8 entries per long prefix). Entry 0 is an
	// invalid prefix: no leaf or pointer packs to 0.
	lut     []uint32
	lutBits uint
}

// maxHuffLen is the longest code NewHuffTable accepts.
const maxHuffLen = 32

// HuffCodeLengths computes canonical Huffman code lengths for the given
// symbol frequencies. Symbols with zero frequency get length 0 (unused).
// Construction is deterministic: ties are broken by symbol index. The
// resulting lengths satisfy the Kraft equality over used symbols. No
// length exceeds maxHuffLen: while the tree is deeper, every used
// frequency is halved (staying nonzero) and the tree rebuilt, which
// flattens it, so a frequency set whose tree already fits keeps its
// lengths.
func HuffCodeLengths(freq []uint64) []uint8 {
	lengths, depth := huffDepths(freq)
	for depth > maxHuffLen {
		flat := make([]uint64, len(freq))
		for s, f := range freq {
			if f > 0 {
				flat[s] = max(f>>1, 1)
			}
		}
		freq = flat
		lengths, depth = huffDepths(freq)
	}
	return lengths
}

// huffDepths is the unlimited Huffman construction: each used symbol's
// leaf depth, and the deepest.
func huffDepths(freq []uint64) (lengths []uint8, deepest uint8) {
	lengths = make([]uint8, len(freq))
	var h huffHeap
	seq := 0
	for s, f := range freq {
		if f == 0 {
			continue
		}
		heap.Push(&h, &huffNode{weight: f, seq: seq, symbol: s})
		seq++
	}
	switch h.Len() {
	case 0:
		return lengths, 0
	case 1:
		lengths[h[0].symbol] = 1
		return lengths, 1
	}
	for h.Len() > 1 {
		a := heap.Pop(&h).(*huffNode)
		b := heap.Pop(&h).(*huffNode)
		heap.Push(&h, &huffNode{weight: a.weight + b.weight, seq: seq, symbol: -1, left: a, right: b})
		seq++
	}
	var walk func(n *huffNode, depth uint8)
	walk = func(n *huffNode, depth uint8) {
		if n.symbol >= 0 {
			lengths[n.symbol] = depth
			deepest = max(deepest, depth)
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(h[0], 0)
	return lengths, deepest
}

// NewHuffTable builds a canonical Huffman table from per-symbol code
// lengths (as produced by HuffCodeLengths). Length 0 marks an unused
// symbol. Codes are assigned canonically: shorter codes first, ties by
// symbol index, each code numerically one more than the previous code of
// the same length (shifted when the length increases).
func NewHuffTable(lengths []uint8) (*HuffTable, error) {
	t := &HuffTable{codes: make([]HuffCode, len(lengths))}
	type entry struct {
		sym int
		len uint8
	}
	var used []entry
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		if l > maxHuffLen {
			return nil, fmt.Errorf("media: huffman code length %d > %d", l, maxHuffLen)
		}
		if l > t.maxLen {
			t.maxLen = l
		}
		used = append(used, entry{s, l})
	}
	if len(used) == 0 {
		return t, nil
	}
	sort.Slice(used, func(i, j int) bool {
		if used[i].len != used[j].len {
			return used[i].len < used[j].len
		}
		return used[i].sym < used[j].sym
	})
	t.count = make([]int, t.maxLen+1)
	for _, e := range used {
		t.count[e.len]++
	}
	// Kraft check.
	var kraft uint64
	for l := uint8(1); l <= t.maxLen; l++ {
		kraft += uint64(t.count[l]) << (t.maxLen - l)
	}
	if kraft > 1<<t.maxLen {
		return nil, fmt.Errorf("media: code lengths oversubscribed (kraft %d > %d)", kraft, uint64(1)<<t.maxLen)
	}
	t.firstCode = make([]uint32, t.maxLen+2)
	t.firstIdx = make([]int, t.maxLen+2)
	t.symByCode = make([]int, 0, len(used))
	code := uint32(0)
	idx := 0
	for l := uint8(1); l <= t.maxLen; l++ {
		t.firstCode[l] = code
		t.firstIdx[l] = idx
		for _, e := range used {
			if e.len != l {
				continue
			}
			t.codes[e.sym] = HuffCode{Bits: code, Len: l}
			t.symByCode = append(t.symByCode, e.sym)
			code++
			idx++
		}
		code <<= 1
	}
	t.buildLUT()
	return t, nil
}

// buildLUT fills the decode LUT. Codes go in by (length, code), and a
// shorter code is never a prefix of a longer one, so a code's walk down
// the levels meets only pointers and zeros; at a zero it appends a block.
// At its last level the code fills every index whose top bits are its
// own. A code that does not pack keeps zero entries and decodes serially.
func (t *HuffTable) buildLUT() {
	t.lutBits = min(uint(t.maxLen), huffLUTBits)
	t.lut = make([]uint32, 1<<t.lutBits)
	for _, sym := range t.symByCode {
		if sym >= 1<<24 || len(t.lut) > 1<<24-2<<huffLUTBits {
			continue // no room for sym or for two more blocks' bases
		}
		c := t.codes[sym]
		l, base, end, width := uint(c.Len), 0, t.lutBits, t.lutBits
		for l > end {
			i := base + int(c.Bits>>(l-end)&(1<<width-1))
			if t.lut[i] == 0 {
				w := min(uint(t.maxLen)-end, huffLUTBits)
				t.lut[i] = uint32(len(t.lut))<<8 | huffLUTSub | uint32(w)
				t.lut = append(t.lut, make([]uint32, 1<<w)...)
			}
			base, width = int(t.lut[i]>>8), uint(t.lut[i]&(huffLUTSub-1))
			end += width
		}
		first := base + int(c.Bits<<(end-l)&(1<<width-1))
		for i := first; i < first+1<<(end-l); i++ {
			t.lut[i] = uint32(sym)<<8 | uint32(l)
		}
	}
}

// lookup resolves the code at the top of w (MSB first) through the LUT
// levels. It returns the symbol and the code length, or length 0 when the
// top bits are no code the table holds.
func (t *HuffTable) lookup(w uint64) (sym int, n uint) {
	used := t.lutBits
	e := t.lut[w>>(64-used)]
	for e&huffLUTSub != 0 {
		width := uint(e & (huffLUTSub - 1))
		e = t.lut[uint(e>>8)+uint(w<<used>>(64-width))]
		used += width
	}
	return int(e >> 8), uint(e & 0xff)
}

// Decode reads one symbol from the bit reader using canonical decoding.
// It returns the symbol and the number of bits consumed. On malformed
// input it returns -1 and sets the reader's error.
//
// Table path: peek maxLen bits, resolve them through the LUT levels,
// advance by the matched length. The serial walk remains authoritative
// for invalid prefixes, entry errors, and the stream tail — the
// `int(l) <= avail` guard rejects LUT matches that would rely on the
// zero padding PeekBits fabricates past the end, so truncated input
// reports exactly the same bits-consumed and PastEnd error as the
// serial walk always has.
func (t *HuffTable) Decode(r *BitReader) (sym int, bits uint) {
	if t.maxLen == 0 {
		r.failCorrupt("decode with empty huffman table")
		return -1, 0
	}
	if r.err == nil {
		if avail := len(r.buf)*8 - r.pos; avail > 0 {
			sym, l := t.lookup(uint64(r.PeekBits(uint(t.maxLen))) << (64 - t.maxLen))
			if l != 0 && int(l) <= avail {
				r.pos += int(l)
				return sym, l
			}
		}
	}
	return t.decodeSerial(r)
}

// decodeSerial is the bit-serial canonical walk: one ReadBits(1) per
// code bit, checking the length-indexed firstCode/count tables at every
// depth. It is the reference semantics the LUT path must match.
func (t *HuffTable) decodeSerial(r *BitReader) (sym int, bits uint) {
	code := uint32(0)
	for l := uint8(1); l <= t.maxLen; l++ {
		code = code<<1 | r.ReadBits(1)
		if r.err != nil {
			return -1, uint(l)
		}
		if t.count[l] == 0 {
			continue
		}
		offset := int(code) - int(t.firstCode[l])
		if offset >= 0 && offset < t.count[l] {
			return t.symByCode[t.firstIdx[l]+offset], uint(l)
		}
	}
	r.failCorrupt("invalid huffman code at bit %d", r.pos)
	return -1, uint(t.maxLen)
}
