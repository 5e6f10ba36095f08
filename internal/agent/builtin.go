package agent

import (
	"fmt"
	"hash/crc32"

	"bestpeer/internal/wire"
)

// Built-in agent classes. Class payloads are synthetic "bytecode" blobs
// sized like the Java classes they stand in for, so class shipping moves
// a realistic number of bytes.

// classBlob builds a deterministic pseudo-bytecode payload for a class.
func classBlob(class string, size int) []byte {
	b := make([]byte, size)
	seed := crc32.ChecksumIEEE([]byte(class))
	for i := range b {
		seed = seed*1664525 + 1013904223
		b[i] = byte(seed >> 24)
	}
	copy(b, class) // embed the name so blobs are self-describing
	return b
}

// KeywordClass is the class name of the paper's StorM search agent.
const KeywordClass = "storm.keyword"

// KeywordAgent is the StorM search agent of §4.2: it carries a keyword,
// compares it against every object in the local Shared-StorM database,
// and returns the matches.
type KeywordAgent struct {
	Query string
}

// Class implements Agent.
func (a *KeywordAgent) Class() string { return KeywordClass }

// State implements Agent.
func (a *KeywordAgent) State() ([]byte, error) {
	var e wire.Encoder
	e.String(a.Query)
	return e.Bytes(), nil
}

// Execute implements Agent: scan the local store and return matching
// objects, rendering active objects through their active elements.
func (a *KeywordAgent) Execute(ctx *Context) ([]Result, error) {
	matches, err := ctx.Store.MatchInto(a.Query, ctx.Arena)
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, obj := range matches {
		data, ok := ctx.ActiveNodes.RenderObject(obj, ctx.AccessLevel)
		if !ok {
			continue // requester may not see this object at all
		}
		out = append(out, Result{Name: obj.Name, Data: data})
	}
	return out, nil
}

type keywordFactory struct{ code []byte }

// NewKeywordFactory returns the factory for the keyword search class.
func NewKeywordFactory() Factory {
	return &keywordFactory{code: classBlob(KeywordClass, 6*1024)}
}

func (f *keywordFactory) Class() string { return KeywordClass }
func (f *keywordFactory) Code() []byte  { return f.code }
func (f *keywordFactory) New(state []byte) (Agent, error) {
	d := wire.NewDecoder(state)
	a := &KeywordAgent{Query: d.String()}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: keyword state: %v", errBadPacket, err)
	}
	return a, nil
}

// filterClass is the class name of the shipped-filter agent.
const filterClass = "storm.filter"

// FilterAgent realizes computational-power sharing (§3.2.3): the
// requester's filter expression executes at the provider against the
// provider's data.
type FilterAgent struct {
	Expr string
	// IncludeData controls whether matching objects' content is
	// returned or only their names (the requester may want a listing).
	IncludeData bool
}

// Class implements Agent.
func (a *FilterAgent) Class() string { return filterClass }

// State implements Agent.
func (a *FilterAgent) State() ([]byte, error) {
	if _, err := CompileFilter(a.Expr); err != nil {
		return nil, err // refuse to ship a filter that cannot compile
	}
	var e wire.Encoder
	e.String(a.Expr)
	e.Bool(a.IncludeData)
	return e.Bytes(), nil
}

// Execute implements Agent.
func (a *FilterAgent) Execute(ctx *Context) ([]Result, error) {
	pred, err := CompileFilter(a.Expr)
	if err != nil {
		return nil, err
	}
	matches, err := ctx.Store.MatchFunc(pred)
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, obj := range matches {
		data, ok := ctx.ActiveNodes.RenderObject(obj, ctx.AccessLevel)
		if !ok {
			continue
		}
		r := Result{Name: obj.Name}
		if a.IncludeData {
			r.Data = data
		}
		out = append(out, r)
	}
	return out, nil
}

type filterFactory struct{ code []byte }

// NewFilterFactory returns the factory for the shipped-filter class.
func NewFilterFactory() Factory {
	return &filterFactory{code: classBlob(filterClass, 9*1024)}
}

func (f *filterFactory) Class() string { return filterClass }
func (f *filterFactory) Code() []byte  { return f.code }
func (f *filterFactory) New(state []byte) (Agent, error) {
	d := wire.NewDecoder(state)
	a := &FilterAgent{Expr: d.String(), IncludeData: d.Bool()}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: filter state: %v", errBadPacket, err)
	}
	if _, err := CompileFilter(a.Expr); err != nil {
		return nil, err
	}
	return a, nil
}

// digestClass is the class name of the digesting agent.
const digestClass = "storm.digest"

// DigestAgent demonstrates the paper's "processed and meaningful
// information" return: instead of raw files, each match is summarized as
// "name size crc32" so only a digest crosses the network.
type DigestAgent struct {
	Query string
}

// Class implements Agent.
func (a *DigestAgent) Class() string { return digestClass }

// State implements Agent.
func (a *DigestAgent) State() ([]byte, error) {
	var e wire.Encoder
	e.String(a.Query)
	return e.Bytes(), nil
}

// Execute implements Agent.
func (a *DigestAgent) Execute(ctx *Context) ([]Result, error) {
	matches, err := ctx.Store.MatchInto(a.Query, ctx.Arena)
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, obj := range matches {
		data, ok := ctx.ActiveNodes.RenderObject(obj, ctx.AccessLevel)
		if !ok {
			continue
		}
		digest := fmt.Sprintf("%s %d %08x", obj.Name, len(data), crc32.ChecksumIEEE(data))
		out = append(out, Result{Name: obj.Name, Data: []byte(digest)})
	}
	return out, nil
}

type digestFactory struct{ code []byte }

// NewDigestFactory returns the factory for the digest class.
func NewDigestFactory() Factory {
	return &digestFactory{code: classBlob(digestClass, 4*1024)}
}

func (f *digestFactory) Class() string { return digestClass }
func (f *digestFactory) Code() []byte  { return f.code }
func (f *digestFactory) New(state []byte) (Agent, error) {
	d := wire.NewDecoder(state)
	a := &DigestAgent{Query: d.String()}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: digest state: %v", errBadPacket, err)
	}
	return a, nil
}

// RegisterBuiltins registers every built-in class as installed.
func RegisterBuiltins(r *Registry) error {
	for _, f := range []Factory{NewKeywordFactory(), NewFilterFactory(), NewDigestFactory(), NewTopKFactory()} {
		if err := r.Register(f); err != nil {
			return err
		}
	}
	return nil
}

// RegisterBuiltinsDormant links every built-in class without installing
// it, so the first arriving agent of each class triggers a class
// transfer (cold-start peers).
func RegisterBuiltinsDormant(r *Registry) error {
	for _, f := range []Factory{NewKeywordFactory(), NewFilterFactory(), NewDigestFactory(), NewTopKFactory()} {
		if err := r.RegisterDormant(f); err != nil {
			return err
		}
	}
	return nil
}
