package wire

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
)

// gzipHeader is the 10-byte member header gzip.Writer writes at its
// default level with no name, comment or modification time.
var gzipHeader = [10]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}

// fixedMemberMax is the longest member deflateFixed can write: the
// header, a block of nothing but 9-bit literals (3 bits of block header,
// 7 of end-of-block) rounded up to a byte, and the CRC-32/ISIZE trailer.
const fixedMemberMax = len(gzipHeader) + (3+9*(fixedCeiling-1)+7+7)/8 + 8

// Match finder: 3-byte strings hash into chains that are walked at most
// fixedChainDepth candidates deep.
const (
	fixedMinMatch   = 3
	fixedHashBits   = 9
	fixedChainDepth = 4
)

// bitWriter packs deflate's LSB-first bit stream into dst. dst is sized
// for the longest member, so it never runs out.
type bitWriter struct {
	dst   *[fixedMemberMax]byte
	pos   int
	acc   uint64
	nbits uint
}

func (w *bitWriter) write(v uint64, n uint) {
	w.acc |= v << w.nbits
	w.nbits += n
	for w.nbits >= 8 {
		w.dst[w.pos] = byte(w.acc)
		w.pos++
		w.acc >>= 8
		w.nbits -= 8
	}
}

// huffman writes an n-bit Huffman code; those go most significant bit
// first, the reverse of every other field.
func (w *bitWriter) huffman(code uint16, n uint) {
	w.write(uint64(bits.Reverse16(code)>>(16-n)), n)
}

// literal writes symbol sym (a byte, 256 for end of block, or a length
// code 257…285) in the fixed literal/length code of RFC 1951 §3.2.6.
func (w *bitWriter) literal(sym int) {
	switch {
	case sym < 144:
		w.huffman(uint16(0x30+sym), 8)
	case sym < 256:
		w.huffman(uint16(0x190+sym-144), 9)
	case sym < 280:
		w.huffman(uint16(sym-256), 7)
	default:
		w.huffman(uint16(0xc0+sym-280), 8)
	}
}

// match writes a back-reference of length 3…257 at distance 1…256, the
// range a body under fixedCeiling can produce.
func (w *bitWriter) match(length, dist int) {
	// Length codes 257…264 stand for 3…10; above, each power of two
	// splits into four codes carrying hb-2 extra bits.
	l := uint(length - fixedMinMatch)
	if l < 8 {
		w.literal(257 + int(l))
	} else {
		hb := uint(bits.Len(l)) - 1
		extra := hb - 2
		w.literal(257 + 4*int(hb-1) + int(l>>extra&3))
		w.write(uint64(l&(1<<extra-1)), extra)
	}
	// Distance codes 0…3 stand for 1…4; above, each power of two splits
	// into two codes carrying hb-1 extra bits.
	d := uint(dist - 1)
	if d < 4 {
		w.huffman(uint16(d), 5)
		return
	}
	hb := uint(bits.Len(d)) - 1
	extra := hb - 1
	w.huffman(uint16(2*hb+d>>extra&1), 5)
	w.write(uint64(d&(1<<extra-1)), extra)
}

// deflateFixed writes raw, which must be shorter than fixedCeiling, as
// one gzip member into dst and returns the member's length: the header
// gzip.Writer writes, one final fixed-Huffman block and the CRC-32/ISIZE
// trailer. The block is LZ77 over 3-byte hash chains, fixedChainDepth
// candidates deep, with a one-step lazy match as zlib's: a match is
// deferred by one byte whenever the next position has a longer one.
// Positions fit a byte, so the chains hold position+1 and 0 ends them;
// all of the state is on the stack.
func deflateFixed(dst *[fixedMemberMax]byte, raw []byte) int {
	var head [1 << fixedHashBits]uint8
	var prev [fixedCeiling]uint8
	n := len(raw)
	// insert links the string at i into its chain and returns the chain's
	// previous head.
	insert := func(i int) uint8 {
		h := (uint32(raw[i])<<16 | uint32(raw[i+1])<<8 | uint32(raw[i+2])) * 0x9e3779b1 >> (32 - fixedHashBits)
		p := head[h]
		prev[i] = p
		head[h] = uint8(i + 1)
		return p
	}
	// longest walks the chain from candidate c+1 for the longest match at i.
	longest := func(i int, c uint8) (length, dist int) {
		for depth := 0; c != 0 && depth < fixedChainDepth; depth++ {
			j := int(c) - 1
			k := 0
			for i+k < n && raw[j+k] == raw[i+k] {
				k++
			}
			if k > length {
				length, dist = k, i-j
			}
			c = prev[j]
		}
		return length, dist
	}

	w := bitWriter{dst: dst, pos: copy(dst[:], gzipHeader[:])}
	w.write(1|1<<1, 3) // BFINAL, BTYPE 01: fixed Huffman
	// pend is a match found at i-1 and held back to see whether i has a
	// longer one; pendLit says raw[i-1] is still to be written.
	pendLen, pendDist, pendLit := 0, 0, false
	for i := 0; i < n; {
		length, dist := 0, 0
		if i+fixedMinMatch <= n {
			length, dist = longest(i, insert(i))
		}
		if pendLen >= fixedMinMatch && length <= pendLen {
			w.match(pendLen, pendDist)
			// The strings inside the match still join their chains.
			for end := i - 1 + pendLen; i+1 < end; {
				if i++; i+fixedMinMatch <= n {
					insert(i)
				}
			}
			i++
			pendLen, pendLit = 0, false
			continue
		}
		if pendLit {
			w.literal(int(raw[i-1]))
		}
		pendLen, pendDist, pendLit = length, dist, true
		i++
	}
	if pendLit {
		w.literal(int(raw[n-1]))
	}
	w.literal(256)
	w.write(0, 7) // flush the last partial byte
	binary.LittleEndian.PutUint32(dst[w.pos:], crc32.ChecksumIEEE(raw))
	binary.LittleEndian.PutUint32(dst[w.pos+4:], uint32(n))
	return w.pos + 8
}
