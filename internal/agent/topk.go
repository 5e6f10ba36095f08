package agent

import (
	"fmt"
	"sort"

	"bestpeer/internal/wire"
)

// topKClass is the class name of the top-K agent.
const topKClass = "storm.topk"

// TopKAgent returns only the K largest objects matching a keyword at
// each peer — an example of a parameterized agent whose selection logic
// runs at the data. A requester browsing a large network gets a bounded
// result set per peer no matter how much matches.
type TopKAgent struct {
	// Query is the keyword to match.
	Query string
	// K bounds the results per peer (the K largest by payload size).
	K int
	// IncludeData returns the objects' content; false returns names
	// annotated with their sizes.
	IncludeData bool
}

// Class implements Agent.
func (a *TopKAgent) Class() string { return topKClass }

// State implements Agent.
func (a *TopKAgent) State() ([]byte, error) {
	if a.K <= 0 {
		return nil, fmt.Errorf("%w: topk K must be positive, got %d", errBadPacket, a.K)
	}
	var e wire.Encoder
	e.String(a.Query)
	e.Uvarint(uint64(a.K))
	e.Bool(a.IncludeData)
	return e.Bytes(), nil
}

// Execute implements Agent: match, rank by rendered size descending
// (ties by name for determinism), keep K.
func (a *TopKAgent) Execute(ctx *Context) ([]Result, error) {
	matches, err := ctx.Store.Match(a.Query)
	if err != nil {
		return nil, err
	}
	type ranked struct {
		name string
		data []byte
	}
	var visible []ranked
	for _, obj := range matches {
		data, ok := ctx.ActiveNodes.RenderObject(obj, ctx.AccessLevel)
		if !ok {
			continue
		}
		visible = append(visible, ranked{obj.Name, data})
	}
	sort.Slice(visible, func(i, j int) bool {
		if len(visible[i].data) != len(visible[j].data) {
			return len(visible[i].data) > len(visible[j].data)
		}
		return visible[i].name < visible[j].name
	})
	if len(visible) > a.K {
		visible = visible[:a.K]
	}
	out := make([]Result, 0, len(visible))
	for _, v := range visible {
		r := Result{Name: v.name}
		if a.IncludeData {
			r.Data = v.data
		} else {
			r.Data = []byte(fmt.Sprintf("%d bytes", len(v.data)))
		}
		out = append(out, r)
	}
	return out, nil
}

type topKFactory struct{ code []byte }

// NewTopKFactory returns the factory for the top-K class.
func NewTopKFactory() Factory {
	return &topKFactory{code: classBlob(topKClass, 5*1024)}
}

func (f *topKFactory) Class() string { return topKClass }
func (f *topKFactory) Code() []byte  { return f.code }
func (f *topKFactory) New(state []byte) (Agent, error) {
	d := wire.NewDecoder(state)
	a := &TopKAgent{Query: d.String(), K: int(d.Uvarint()), IncludeData: d.Bool()}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: topk state: %v", errBadPacket, err)
	}
	if a.K <= 0 {
		return nil, fmt.Errorf("%w: topk K = %d", errBadPacket, a.K)
	}
	return a, nil
}
