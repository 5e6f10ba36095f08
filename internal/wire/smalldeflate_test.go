package wire

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"testing"
)

// token is one symbol of a fixed-Huffman block: a literal byte, or a
// back-reference (length > 0) with the codes it was written in.
type token struct {
	lit                      byte
	length, dist             int
	lengthCode, distanceCode int
}

func (k token) String() string {
	if k.length == 0 {
		return fmt.Sprintf("%q", k.lit)
	}
	return fmt.Sprintf("<%d,%d>", k.length, k.dist)
}

// fixedTokens reads a gzip member back into the tokens of its one fixed
// block, independently of deflateFixed's writer: codes are read a bit at
// a time and matched against the ranges of RFC 1951 §3.2.6.
func fixedTokens(t *testing.T, member []byte) []token {
	t.Helper()
	body := member[len(gzipHeader) : len(member)-8]
	pos := 0
	bit := func() uint {
		if pos >= 8*len(body) {
			t.Fatal("the block runs past its member")
		}
		b := uint(body[pos/8]>>(pos%8)) & 1
		pos++
		return b
	}
	field := func(n int) int { // extra bits: least significant first
		v := 0
		for i := 0; i < n; i++ {
			v |= int(bit()) << i
		}
		return v
	}
	code := func(n int) uint { // a Huffman code: most significant first
		c := uint(0)
		for i := 0; i < n; i++ {
			c = c<<1 | bit()
		}
		return c
	}
	symbol := func() int {
		c := code(7)
		if c <= 0x17 {
			return 256 + int(c)
		}
		c = c<<1 | bit()
		switch {
		case c >= 0x30 && c <= 0xbf:
			return int(c - 0x30)
		case c >= 0xc0 && c <= 0xc7:
			return 280 + int(c-0xc0)
		}
		return 144 + int((c<<1|bit())-0x190)
	}
	if bit() != 1 || field(2) != 1 {
		t.Fatal("not one final fixed-Huffman block")
	}
	lengthBase := []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	var tokens []token
	for {
		sym := symbol()
		switch {
		case sym < 256:
			tokens = append(tokens, token{lit: byte(sym)})
			continue
		case sym == 256:
			return tokens
		}
		c := sym - 257
		extra := 0
		if c >= 8 && c < 28 {
			extra = c/4 - 1
		}
		length := lengthBase[c] + field(extra)
		d := int(code(5))
		dist := 1 + d
		if d >= 4 {
			extra := d/2 - 1
			dist = 1 + (2+d%2)<<extra + field(extra)
		}
		tokens = append(tokens, token{length: length, dist: dist, lengthCode: sym, distanceCode: d})
	}
}

// deflated runs deflateFixed on raw, checks that gzip.Reader gives raw
// back, and returns the block's tokens.
func deflated(t *testing.T, raw []byte) []token {
	t.Helper()
	var member [fixedMemberMax]byte
	n := deflateFixed(&member, raw)
	zr, err := gzip.NewReader(bytes.NewReader(member[:n]))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(zr); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("%d-byte body does not inflate back (%v)", len(raw), err)
	}
	return fixedTokens(t, member[:n])
}

// TestSmallDeflateCodes: every length code and every distance code a
// body under fixedCeiling can reach is written and read back as the
// match it stands for. A body of `dist` distinct bytes followed by
// `length` bytes copying them (overlapping where length > dist) holds
// exactly one match.
func TestSmallDeflateCodes(t *testing.T) {
	lengthCodes, distCodes := map[int]bool{}, map[int]bool{}
	check := func(length, dist int) {
		raw := make([]byte, dist, dist+length+1)
		for i := range raw {
			raw[i] = byte(i)
		}
		for i := 0; i < length; i++ {
			raw = append(raw, raw[len(raw)-dist])
		}
		raw = append(raw, 0xff) // distinct from every byte before it
		want := make([]token, 0, dist+2)
		for i := 0; i < dist; i++ {
			want = append(want, token{lit: byte(i)})
		}
		want = append(want, token{length: length, dist: dist}, token{lit: 0xff})
		got := deflated(t, raw)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("length %d at distance %d: tokens %v", length, dist, got)
		}
		lengthCodes[got[dist].lengthCode] = true
		distCodes[got[dist].distanceCode] = true
	}
	for length := fixedMinMatch; length <= fixedCeiling-3; length++ {
		check(length, 1) // 253: the longest match with a byte after it
	}
	for dist := 2; dist <= fixedCeiling-fixedMinMatch-2; dist++ {
		check(fixedMinMatch, dist) // 251: the farthest with a byte after it
	}
	if len(lengthCodes) != 28 || len(distCodes) != 16 {
		t.Fatalf("%d length codes, %d distance codes written; want 28 (257…284) and 16 (0…15)", len(lengthCodes), len(distCodes))
	}
}

// TestSmallDeflateMatchChoice: the two decisions beyond greedy matching,
// and the longest match.
func TestSmallDeflateMatchChoice(t *testing.T) {
	for _, tc := range []struct{ name, raw, want string }{
		// At the second 'a' "abc" matches 3; at the 'b' after it
		// "bcdefghij" matches 9: lazy matching writes 'a' and the longer
		// match.
		{"lazy", "abc#bcdefghij%abcdefghij", `['a' 'b' 'c' '#' 'b' 'c' 'd' 'e' 'f' 'g' 'h' 'i' 'j' '%' 'a' <9,11>]`},
		// At the last 'a' the chain's newest "abc" matches 3 and an older
		// one 8: the walk goes past the first candidate.
		{"chain", "abcdefgh#abcY%abcdefgh", `['a' 'b' 'c' 'd' 'e' 'f' 'g' 'h' '#' <3,9> 'Y' '%' <8,14>]`},
		// The longest match a body under the ceiling holds.
		{"longest", string(make([]byte, fixedCeiling-1)), `['\x00' <254,1>]`},
	} {
		if got := fmt.Sprint(deflated(t, []byte(tc.raw))); got != tc.want {
			t.Errorf("%s: tokens %s, want %s", tc.name, got, tc.want)
		}
	}
}
