// Package reconfig implements BestPeer's self-configuration strategies
// (§3.3 of the paper). After each query a node scores the peers it heard
// answers from and keeps the most beneficial k as direct peers. The
// Strategy interface is the extension point; MaxCount and MinHops are the
// paper's two built-in policies.
package reconfig

import (
	"slices"
	"sort"
	"strings"

	"bestpeer/internal/obs"
	"bestpeer/internal/wire"
)

// Observation is what a node learned about one peer during a query round.
type Observation struct {
	// ID is the peer's BestPeer identity (may be zero if unknown).
	ID wire.BPID
	// Addr is the peer's current address.
	Addr string
	// Answers is how many results the peer returned for the query.
	Answers int
	// Bytes is the total result payload the peer returned.
	Bytes int
	// Hops is how far from the base node the peer was when it answered
	// (piggybacked on its results, as MinHops requires).
	Hops int
	// Direct reports whether the peer is currently a direct peer.
	Direct bool
}

// Strategy ranks observed peers; the node keeps the top k as its direct
// peers.
type Strategy interface {
	// Name identifies the strategy.
	Name() string
	// Select returns up to k observations, best first, to retain as
	// direct peers. Implementations must be deterministic.
	Select(obs []Observation, k int) []Observation
}

// MaxCount keeps the peers that returned the most answers: "a peer that
// returns more answers can potentially satisfy future queries". Ties are
// broken deterministically (bytes, then address) where the paper breaks
// them arbitrarily.
type MaxCount struct{}

// Name implements Strategy.
func (MaxCount) Name() string { return "maxcount" }

// Select implements Strategy.
func (MaxCount) Select(obs []Observation, k int) []Observation {
	sorted := append([]Observation(nil), obs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Answers != sorted[j].Answers {
			return sorted[i].Answers > sorted[j].Answers
		}
		if sorted[i].Bytes != sorted[j].Bytes {
			return sorted[i].Bytes > sorted[j].Bytes
		}
		return sorted[i].Addr < sorted[j].Addr
	})
	return clamp(sorted, k)
}

// MinHops keeps answer-providing peers that are furthest away, so that
// everything reachable through nearby peers stays reachable while distant
// providers become one hop: "pick those with the larger hops values as
// the immediate peers; in the event of ties, the one with the larger
// number of answers is preferred."
type MinHops struct{}

// Name implements Strategy.
func (MinHops) Name() string { return "minhops" }

// Select implements Strategy.
func (MinHops) Select(obs []Observation, k int) []Observation {
	sorted := append([]Observation(nil), obs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Hops != sorted[j].Hops {
			return sorted[i].Hops > sorted[j].Hops
		}
		if sorted[i].Answers != sorted[j].Answers {
			return sorted[i].Answers > sorted[j].Answers
		}
		return sorted[i].Addr < sorted[j].Addr
	})
	return clamp(sorted, k)
}

// Static never reconfigures: the current direct peers are kept, which is
// the BPS scheme in the paper's evaluation (and Gnutella's behaviour).
type Static struct{}

// Name implements Strategy.
func (Static) Name() string { return "static" }

// Select implements Strategy: keep current direct peers only.
func (Static) Select(obs []Observation, k int) []Observation {
	var direct []Observation
	for _, o := range obs {
		if o.Direct {
			direct = append(direct, o)
		}
	}
	return clamp(direct, k)
}

func clamp(obs []Observation, k int) []Observation {
	if k >= 0 && len(obs) > k {
		obs = obs[:k]
	}
	return obs
}

// Decision is one candidate's line in an explained selection: the
// observation, where the strategy ranked it, and whether the k-cut kept
// it. Rank is 1-based; 0 means the strategy never ranked the candidate
// (Static drops non-direct peers without ordering them).
type Decision struct {
	Observation
	Rank     int
	Selected bool
}

// Explain re-runs a strategy's selection with full visibility: every
// candidate appears in the result with its rank and whether it survived
// the k-cut. The ranked candidates come first in rank order, unranked
// ones follow sorted by address, so the slice doubles as a rationale
// record for the event journal.
func Explain(s Strategy, obs []Observation, k int) []Decision {
	ranked := s.Select(obs, len(obs)) // rank everything, cut below
	rankOf := make(map[string]int, len(ranked))
	for i, o := range ranked {
		rankOf[o.Addr] = i + 1
	}
	decisions := make([]Decision, 0, len(obs))
	for _, o := range obs {
		r := rankOf[o.Addr]
		decisions = append(decisions, Decision{
			Observation: o,
			Rank:        r,
			Selected:    r > 0 && (k < 0 || r <= k),
		})
	}
	sort.SliceStable(decisions, func(i, j int) bool {
		ri, rj := decisions[i].Rank, decisions[j].Rank
		if (ri > 0) != (rj > 0) {
			return ri > 0 // ranked candidates first
		}
		if ri != rj {
			return ri < rj
		}
		return decisions[i].Addr < decisions[j].Addr
	})
	return decisions
}

// Round is one reconfiguration round, the one the node and the simulator
// both run after a query. seen yields what the query revealed, one
// observation per answer or answer batch: a peer's are summed (answers,
// bytes) and keep the deepest hop. direct is the current direct peers (ID
// and Addr); one that did not answer competes with 0 answers at 1 hop, so
// Static keeps it and MaxCount may rank it last. The candidates are
// ranked once, by Explain, in address order whatever order seen yields
// them in: why is that ranking, and picks are its selected candidates
// that are not yet direct peers, in rank order. Applying the picks is the
// caller's: the current peers stay and the picks fill the free slots.
func Round(s Strategy, direct []Observation, seen func(yield func(Observation)), k int) (picks []Observation, why []Decision) {
	at := make(map[string]int)
	cands := make([]Observation, 0, 2*len(direct)) // the direct peers and as many others
	seen(func(o Observation) {
		i, ok := at[o.Addr]
		if !ok {
			i = len(cands)
			at[o.Addr] = i
			cands = append(cands, Observation{ID: o.ID, Addr: o.Addr})
		}
		c := &cands[i]
		c.Answers += o.Answers
		c.Bytes += o.Bytes
		c.Hops = max(c.Hops, o.Hops)
	})
	for _, p := range direct {
		if i, ok := at[p.Addr]; ok {
			cands[i].Direct = true
			continue
		}
		cands = append(cands, Observation{ID: p.ID, Addr: p.Addr, Hops: 1, Direct: true})
	}
	slices.SortFunc(cands, func(a, b Observation) int { return strings.Compare(a.Addr, b.Addr) })
	why = Explain(s, cands, k)
	for _, d := range why {
		if d.Selected && !d.Direct {
			picks = append(picks, d.Observation)
		}
	}
	return picks, why
}

// Scores is a round's rationale as the event journal records it.
func Scores(why []Decision) []obs.PeerScore {
	scores := make([]obs.PeerScore, len(why))
	for i, d := range why {
		scores[i] = obs.PeerScore{
			Addr:     d.Addr,
			Answers:  d.Answers,
			Bytes:    d.Bytes,
			Hops:     d.Hops,
			Rank:     d.Rank,
			Selected: d.Selected,
		}
	}
	return scores
}

// ByName returns the strategy with the given name: "maxcount", "minhops"
// or "static". Unknown names fall back to MaxCount, the paper's default.
func ByName(name string) Strategy {
	switch name {
	case "minhops":
		return MinHops{}
	case "static":
		return Static{}
	default:
		return MaxCount{}
	}
}
