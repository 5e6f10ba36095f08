package agent

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"bestpeer/internal/storm"
)

// The filter expression language is how BestPeer's computational-power
// sharing works here: the requester writes a filter, the expression ships
// with the agent, and it is compiled and evaluated at the provider's site
// against the provider's objects — the requester's algorithm running on
// the provider's CPU.
//
// Grammar:
//
//	expr  := or
//	or    := and { '|' and }
//	and   := not { '&' not }
//	not   := '!' not | '(' expr ')' | pred
//	pred  := field op value
//	field := name | keyword | size | kind | data
//	op    := '=' (equals) | '~' (contains) | '>' | '<' (numeric)
//
// Values are bare words or double-quoted strings. String comparisons are
// case-insensitive. Examples:
//
//	keyword=jazz & size>512
//	name~report | (keyword=finance & !data~draft)
//	kind=active

// errFilterSyntax reports a malformed filter expression.
var errFilterSyntax = errors.New("agent: filter syntax error")

// Predicate is a compiled filter.
type Predicate func(*storm.Object) bool

// CompileFilter parses and compiles a filter expression.
func CompileFilter(src string) (Predicate, error) {
	p := &filterParser{src: src}
	p.next()
	pred, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok != tokEOF {
		return nil, fmt.Errorf("%w: unexpected %q at offset %d", errFilterSyntax, p.lit, p.off)
	}
	return pred, nil
}

type filterToken int

const (
	tokEOF filterToken = iota
	tokWord
	tokAnd    // &
	tokOr     // |
	tokNot    // !
	tokLParen // (
	tokRParen // )
	tokEq     // =
	tokTilde  // ~
	tokGT     // >
	tokLT     // <
	tokBad
)

type filterParser struct {
	src string
	pos int
	off int // start offset of current token
	tok filterToken
	lit string
}

func (p *filterParser) next() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
	p.off = p.pos
	if p.pos >= len(p.src) {
		p.tok, p.lit = tokEOF, ""
		return
	}
	c := p.src[p.pos]
	switch c {
	case '&':
		p.tok, p.lit = tokAnd, "&"
	case '|':
		p.tok, p.lit = tokOr, "|"
	case '!':
		p.tok, p.lit = tokNot, "!"
	case '(':
		p.tok, p.lit = tokLParen, "("
	case ')':
		p.tok, p.lit = tokRParen, ")"
	case '=':
		p.tok, p.lit = tokEq, "="
	case '~':
		p.tok, p.lit = tokTilde, "~"
	case '>':
		p.tok, p.lit = tokGT, ">"
	case '<':
		p.tok, p.lit = tokLT, "<"
	case '"':
		end := p.pos + 1
		for end < len(p.src) && p.src[end] != '"' {
			end++
		}
		if end >= len(p.src) {
			p.tok, p.lit = tokBad, p.src[p.pos:]
			p.pos = len(p.src)
			return
		}
		p.tok, p.lit = tokWord, p.src[p.pos+1:end]
		p.pos = end + 1
		return
	default:
		if isWordChar(c) {
			end := p.pos
			for end < len(p.src) && isWordChar(p.src[end]) {
				end++
			}
			p.tok, p.lit = tokWord, p.src[p.pos:end]
			p.pos = end
			return
		}
		p.tok, p.lit = tokBad, string(c)
	}
	p.pos++
}

func isWordChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_' || c == '-' || c == '.'
}

func (p *filterParser) parseOr() (Predicate, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok == tokOr {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l, r := left, right
		left = func(o *storm.Object) bool { return l(o) || r(o) }
	}
	return left, nil
}

func (p *filterParser) parseAnd() (Predicate, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.tok == tokAnd {
		p.next()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l, r := left, right
		left = func(o *storm.Object) bool { return l(o) && r(o) }
	}
	return left, nil
}

func (p *filterParser) parseNot() (Predicate, error) {
	switch p.tok {
	case tokNot:
		p.next()
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return func(o *storm.Object) bool { return !inner(o) }, nil
	case tokLParen:
		p.next()
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok != tokRParen {
			return nil, fmt.Errorf("%w: missing ')' at offset %d", errFilterSyntax, p.off)
		}
		p.next()
		return inner, nil
	default:
		return p.parsePred()
	}
}

func (p *filterParser) parsePred() (Predicate, error) {
	if p.tok != tokWord {
		return nil, fmt.Errorf("%w: expected field at offset %d, got %q", errFilterSyntax, p.off, p.lit)
	}
	field := strings.ToLower(p.lit)
	p.next()

	op := p.tok
	switch op {
	case tokEq, tokTilde, tokGT, tokLT:
	default:
		return nil, fmt.Errorf("%w: expected operator after %q at offset %d", errFilterSyntax, field, p.off)
	}
	p.next()

	if p.tok != tokWord {
		return nil, fmt.Errorf("%w: expected value at offset %d", errFilterSyntax, p.off)
	}
	value := p.lit
	p.next()

	return compilePred(field, op, value)
}

func compilePred(field string, op filterToken, value string) (Predicate, error) {
	lower := strings.ToLower(value)
	switch field {
	case "name":
		switch op {
		case tokEq:
			return func(o *storm.Object) bool { return strings.EqualFold(o.Name, value) }, nil
		case tokTilde:
			return func(o *storm.Object) bool {
				return strings.Contains(strings.ToLower(o.Name), lower)
			}, nil
		}
	case "keyword":
		switch op {
		case tokEq:
			return func(o *storm.Object) bool {
				for _, k := range o.Keywords {
					if strings.EqualFold(k, value) {
						return true
					}
				}
				return false
			}, nil
		case tokTilde:
			return func(o *storm.Object) bool {
				for _, k := range o.Keywords {
					if strings.Contains(strings.ToLower(k), lower) {
						return true
					}
				}
				return false
			}, nil
		}
	case "data":
		switch op {
		case tokTilde:
			return func(o *storm.Object) bool {
				return strings.Contains(strings.ToLower(string(o.Data)), lower)
			}, nil
		case tokEq:
			return func(o *storm.Object) bool { return string(o.Data) == value }, nil
		}
	case "size":
		n, err := strconv.Atoi(value)
		if err != nil {
			return nil, fmt.Errorf("%w: size wants a number, got %q", errFilterSyntax, value)
		}
		switch op {
		case tokEq:
			return func(o *storm.Object) bool { return len(o.Data) == n }, nil
		case tokGT:
			return func(o *storm.Object) bool { return len(o.Data) > n }, nil
		case tokLT:
			return func(o *storm.Object) bool { return len(o.Data) < n }, nil
		}
	case "kind":
		var want storm.ObjectKind
		switch lower {
		case "static":
			want = storm.StaticObject
		case "active":
			want = storm.ActiveObject
		default:
			return nil, fmt.Errorf("%w: kind wants static|active, got %q", errFilterSyntax, value)
		}
		if op == tokEq {
			return func(o *storm.Object) bool { return o.Kind == want }, nil
		}
	default:
		return nil, fmt.Errorf("%w: unknown field %q", errFilterSyntax, field)
	}
	return nil, fmt.Errorf("%w: operator not supported for field %q", errFilterSyntax, field)
}
