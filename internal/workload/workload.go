// Package workload generates the experimental data of §4.2: each node
// stores a set of fixed-size objects (1000 × 1 KB in the paper) tagged
// with keywords, and queries are keywords drawn from the vocabulary. The
// same Spec drives both the live system (Populate fills a StorM store)
// and the simulator (MatchCount answers "how many hits at node i"
// analytically, guaranteed to agree with the generated objects).
package workload

import (
	"fmt"
	"math/rand"

	"bestpeer/internal/storm"
)

// Spec describes one experiment's data.
type Spec struct {
	// ObjectsPerNode is how many objects each node shares (paper: 1000).
	ObjectsPerNode int
	// ObjectSize is each object's payload size in bytes (paper: 1 KB).
	ObjectSize int
	// Vocabulary is the number of distinct keywords objects draw from.
	Vocabulary int
	// Seed makes generation deterministic.
	Seed int64

	// PlantedKeyword, when non-empty, is a query term that matches only
	// at Holders — the Fig. 8 setup where "answers come from only a few
	// nodes". Each holder has PlantedHits matching objects.
	PlantedKeyword string
	Holders        []int
	PlantedHits    int
}

// Default returns the paper's baseline workload: 1000 × 1 KB objects per
// node over a 100-keyword vocabulary.
func Default(seed int64) *Spec {
	return &Spec{
		ObjectsPerNode: 1000,
		ObjectSize:     1024,
		Vocabulary:     100,
		Seed:           seed,
	}
}

// Keyword returns the i-th vocabulary term.
func (s *Spec) Keyword(i int) string { return fmt.Sprintf("kw%d", i) }

// keywordIndex deterministically assigns a vocabulary index to object
// (node, i). A small affine hash keeps the distribution even without any
// allocation.
func (s *Spec) keywordIndex(node, i int) int {
	h := uint64(s.Seed)*0x9E3779B97F4A7C15 + uint64(node)*0xBF58476D1CE4E5B9 + uint64(i)*0x94D049BB133111EB
	h ^= h >> 31
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 27
	return int(h % uint64(s.Vocabulary))
}

func (s *Spec) isHolder(node int) bool {
	for _, h := range s.Holders {
		if h == node {
			return true
		}
	}
	return false
}

// Objects generates node's object set. Object names never contain
// vocabulary terms, so name-substring matching cannot add surprise hits.
func (s *Spec) Objects(node int) []*storm.Object {
	out := make([]*storm.Object, 0, s.ObjectsPerNode)
	planted := 0
	if s.PlantedKeyword != "" && s.isHolder(node) {
		planted = s.PlantedHits
	}
	rng := rand.New(rand.NewSource(s.Seed ^ int64(node)*7919))
	for i := 0; i < s.ObjectsPerNode; i++ {
		var kw string
		if i < planted {
			kw = s.PlantedKeyword
		} else {
			kw = s.Keyword(s.keywordIndex(node, i))
		}
		data := make([]byte, s.ObjectSize)
		rng.Read(data)
		out = append(out, &storm.Object{
			Name:     fmt.Sprintf("n%d-object-%04d", node, i),
			Keywords: []string{kw},
			Data:     data,
		})
	}
	return out
}

// Populate inserts node's object set into a store.
func (s *Spec) Populate(node int, st *storm.Store) error {
	for _, obj := range s.Objects(node) {
		if _, err := st.Put(obj); err != nil {
			return fmt.Errorf("workload: populate node %d: %w", node, err)
		}
	}
	return nil
}

// MatchCount returns how many of node's objects match the query, without
// materializing them. It agrees exactly with running store.Match over the
// generated objects.
func (s *Spec) MatchCount(node int, query string) int {
	planted := 0
	if s.PlantedKeyword != "" && s.isHolder(node) {
		planted = s.PlantedHits
	}
	if query == s.PlantedKeyword && s.PlantedKeyword != "" {
		return planted
	}
	count := 0
	for i := planted; i < s.ObjectsPerNode; i++ {
		if s.Keyword(s.keywordIndex(node, i)) == query {
			count++
		}
	}
	return count
}

// UniformQueries draws n queries uniformly from the vocabulary.
func (s *Spec) UniformQueries(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = s.Keyword(rng.Intn(s.Vocabulary))
	}
	return out
}
