package reconfig

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func observe(addr string, answers, hops int, direct bool) Observation {
	return Observation{Addr: addr, Answers: answers, Hops: hops, Direct: direct}
}

func addrs(sel []Observation) []string {
	out := make([]string, len(sel))
	for i, o := range sel {
		out[i] = o.Addr
	}
	return out
}

func TestMaxCountKeepsTopAnswerers(t *testing.T) {
	in := []Observation{
		observe("a", 3, 1, true),
		observe("b", 10, 2, false),
		observe("c", 0, 1, true),
		observe("d", 7, 3, false),
	}
	got := addrs(MaxCount{}.Select(in, 2))
	if len(got) != 2 || got[0] != "b" || got[1] != "d" {
		t.Fatalf("MaxCount selected %v", got)
	}
}

func TestMaxCountTieBreaks(t *testing.T) {
	in := []Observation{
		{Addr: "z", Answers: 5, Bytes: 100},
		{Addr: "a", Answers: 5, Bytes: 100},
		{Addr: "m", Answers: 5, Bytes: 900},
	}
	got := addrs(MaxCount{}.Select(in, 3))
	// Bytes first, then address.
	if got[0] != "m" || got[1] != "a" || got[2] != "z" {
		t.Fatalf("tie order = %v", got)
	}
}

func TestMinHopsPrefersFarAnswerers(t *testing.T) {
	in := []Observation{
		observe("near", 9, 1, true),
		observe("far", 2, 5, false),
		observe("mid", 4, 3, false),
	}
	got := addrs(MinHops{}.Select(in, 2))
	if got[0] != "far" || got[1] != "mid" {
		t.Fatalf("MinHops selected %v", got)
	}
}

func TestMinHopsTieBreaksByAnswers(t *testing.T) {
	in := []Observation{
		observe("few", 1, 4, false),
		observe("many", 8, 4, false),
	}
	got := addrs(MinHops{}.Select(in, 1))
	if got[0] != "many" {
		t.Fatalf("MinHops tie selected %v", got)
	}
}

func TestStaticKeepsOnlyCurrentDirectPeers(t *testing.T) {
	in := []Observation{
		observe("stranger", 99, 4, false),
		observe("old-1", 0, 1, true),
		observe("old-2", 1, 1, true),
	}
	got := addrs(Static{}.Select(in, 5))
	if len(got) != 2 || got[0] != "old-1" || got[1] != "old-2" {
		t.Fatalf("Static selected %v", got)
	}
}

func TestSelectClamping(t *testing.T) {
	in := []Observation{observe("a", 1, 1, false), observe("b", 2, 1, false)}
	if got := (MaxCount{}).Select(in, 0); len(got) != 0 {
		t.Fatalf("k=0 returned %v", got)
	}
	if got := (MaxCount{}).Select(in, 10); len(got) != 2 {
		t.Fatalf("k>n returned %d", len(got))
	}
	if got := (MaxCount{}).Select(nil, 3); len(got) != 0 {
		t.Fatalf("empty obs returned %v", got)
	}
}

func TestSelectDoesNotMutateInput(t *testing.T) {
	in := []Observation{observe("a", 1, 1, false), observe("b", 9, 1, false)}
	MaxCount{}.Select(in, 1)
	if in[0].Addr != "a" || in[1].Addr != "b" {
		t.Fatal("Select reordered the caller's slice")
	}
}

func TestExplainRanksAndCuts(t *testing.T) {
	in := []Observation{
		observe("a", 3, 1, true),
		observe("b", 10, 2, false),
		observe("c", 0, 1, true),
		observe("d", 7, 3, false),
	}
	d := Explain(MaxCount{}, in, 2)
	if len(d) != 4 {
		t.Fatalf("Explain returned %d decisions, want every candidate", len(d))
	}
	// Rank order: b(10), d(7), a(3), c(0); k=2 keeps b and d.
	wantOrder := []string{"b", "d", "a", "c"}
	for i, w := range wantOrder {
		if d[i].Addr != w || d[i].Rank != i+1 {
			t.Fatalf("decision %d = %s rank %d, want %s rank %d", i, d[i].Addr, d[i].Rank, w, i+1)
		}
		if sel := i < 2; d[i].Selected != sel {
			t.Fatalf("decision %s selected=%v, want %v", d[i].Addr, d[i].Selected, sel)
		}
	}
}

func TestExplainStaticLeavesStrangersUnranked(t *testing.T) {
	in := []Observation{
		observe("stranger", 99, 4, false),
		observe("old", 0, 1, true),
	}
	d := Explain(Static{}, in, 8)
	if d[0].Addr != "old" || d[0].Rank != 1 || !d[0].Selected {
		t.Fatalf("direct peer decision = %+v", d[0])
	}
	if d[1].Addr != "stranger" || d[1].Rank != 0 || d[1].Selected {
		t.Fatalf("stranger decision = %+v", d[1])
	}
}

func TestExplainNegativeKSelectsAllRanked(t *testing.T) {
	in := []Observation{observe("a", 1, 1, false), observe("b", 2, 1, false)}
	for _, d := range Explain(MaxCount{}, in, -1) {
		if !d.Selected {
			t.Fatalf("k<0 must select every ranked candidate, got %+v", d)
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("maxcount").Name() != "maxcount" ||
		ByName("minhops").Name() != "minhops" ||
		ByName("static").Name() != "static" {
		t.Fatal("ByName mapping broken")
	}
	if ByName("unknown").Name() != "maxcount" {
		t.Fatal("unknown should fall back to maxcount")
	}
}

// Property: selections are deterministic, sized <= k, and drawn from the
// input set; MaxCount's selection always has answer counts >= any
// unselected observation.
func TestStrategyProperties(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20)
		k := int(kRaw % 8)
		in := make([]Observation, n)
		for i := range in {
			in[i] = Observation{
				Addr:    string(rune('a' + i)),
				Answers: rng.Intn(10),
				Bytes:   rng.Intn(1000),
				Hops:    rng.Intn(6),
				Direct:  rng.Intn(2) == 0,
			}
		}
		for _, s := range []Strategy{MaxCount{}, MinHops{}, Static{}} {
			sel1 := s.Select(in, k)
			sel2 := s.Select(in, k)
			if len(sel1) != len(sel2) || len(sel1) > k {
				return false
			}
			members := make(map[string]Observation)
			for _, o := range in {
				members[o.Addr] = o
			}
			chosen := make(map[string]bool)
			for i, o := range sel1 {
				if sel2[i].Addr != o.Addr {
					return false // nondeterministic
				}
				if _, ok := members[o.Addr]; !ok {
					return false // invented a peer
				}
				if chosen[o.Addr] {
					return false // duplicate
				}
				chosen[o.Addr] = true
			}
		}
		// MaxCount optimality: min selected answers >= max unselected.
		sel := MaxCount{}.Select(in, k)
		if len(sel) == k && k > 0 {
			minSel := sel[len(sel)-1].Answers
			inSel := make(map[string]bool)
			for _, o := range sel {
				inSel[o.Addr] = true
			}
			for _, o := range in {
				if !inSel[o.Addr] && o.Answers > minSel {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRound: one reconfiguration round, from raw per-answer observations
// and the current direct peers to the journal's decisions and the picks.
func TestRound(t *testing.T) {
	heard := func(addr string, answers, bytes, hops int) Observation {
		return Observation{Addr: addr, Answers: answers, Bytes: bytes, Hops: hops}
	}
	peer := func(addr string) Observation { return Observation{Addr: addr} }
	type line struct {
		addr                 string
		answers, bytes, hops int
		direct, selected     bool
		rank                 int
	}
	for _, tc := range []struct {
		name   string
		s      Strategy
		direct []Observation
		seen   []Observation
		k      int
		why    []line
		picks  []string
	}{{
		name:  "a peer's answers are summed and its deepest hop kept",
		s:     MaxCount{},
		seen:  []Observation{heard("a", 1, 10, 2), heard("b", 1, 5, 1), heard("a", 2, 20, 4), heard("a", 1, 10, 3)},
		k:     4,
		why:   []line{{"a", 4, 40, 4, false, true, 1}, {"b", 1, 5, 1, false, true, 2}},
		picks: []string{"a", "b"},
	}, {
		name:   "a silent direct peer competes at 0 answers and 1 hop",
		s:      MinHops{},
		direct: []Observation{peer("quiet"), peer("heard")},
		seen:   []Observation{heard("heard", 2, 0, 1), heard("far", 1, 0, 1)},
		k:      2,
		why:    []line{{"heard", 2, 0, 1, true, true, 1}, {"far", 1, 0, 1, false, true, 2}, {"quiet", 0, 0, 1, true, false, 3}},
		picks:  []string{"far"},
	}, {
		name:   "picks skip direct peers and come in rank order",
		s:      MaxCount{},
		direct: []Observation{peer("d1"), peer("d2")},
		seen:   []Observation{heard("x", 1, 0, 2), heard("d1", 9, 0, 1), heard("y", 5, 0, 3), heard("z", 3, 0, 2)},
		k:      3,
		why: []line{{"d1", 9, 0, 1, true, true, 1}, {"y", 5, 0, 3, false, true, 2}, {"z", 3, 0, 2, false, true, 3},
			{"x", 1, 0, 2, false, false, 4}, {"d2", 0, 0, 1, true, false, 5}},
		picks: []string{"y", "z"},
	}, {
		name:   "Static picks nothing",
		s:      Static{},
		direct: []Observation{peer("d2"), peer("d1")},
		seen:   []Observation{heard("stranger", 9, 0, 3), heard("d2", 1, 0, 1)},
		k:      8,
		why:    []line{{"d1", 0, 0, 1, true, true, 1}, {"d2", 1, 0, 1, true, true, 2}, {"stranger", 9, 0, 3, false, false, 0}},
	}, {
		name:   "the decisions do not depend on the order of the answers",
		s:      Static{},
		direct: []Observation{peer("e"), peer("c"), peer("a")},
		seen:   []Observation{heard("d", 1, 0, 2), heard("c", 1, 0, 1), heard("b", 1, 0, 3), heard("c", 1, 0, 1)},
		k:      2,
		why: []line{{"a", 0, 0, 1, true, true, 1}, {"c", 2, 0, 1, true, true, 2}, {"e", 0, 0, 1, true, false, 3},
			{"b", 1, 0, 3, false, false, 0}, {"d", 1, 0, 2, false, false, 0}},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			// Every row holds whatever order the answers and the direct
			// peers come in.
			rng := rand.New(rand.NewSource(1))
			seen, direct := slices.Clone(tc.seen), slices.Clone(tc.direct)
			for shuffle := 0; shuffle < 8; shuffle++ {
				picks, why := Round(tc.s, direct, func(yield func(Observation)) {
					for _, o := range seen {
						yield(o)
					}
				}, tc.k)
				got := make([]line, len(why))
				for i, d := range why {
					got[i] = line{d.Addr, d.Answers, d.Bytes, d.Hops, d.Direct, d.Selected, d.Rank}
				}
				if !reflect.DeepEqual(got, tc.why) {
					t.Fatalf("answers %v, direct peers %v: decisions\n got %v\nwant %v", seen, direct, got, tc.why)
				}
				if a := addrs(picks); !slices.Equal(a, tc.picks) {
					t.Fatalf("answers %v, direct peers %v: picks = %v, want %v", seen, direct, a, tc.picks)
				}
				rng.Shuffle(len(seen), func(i, j int) { seen[i], seen[j] = seen[j], seen[i] })
				rng.Shuffle(len(direct), func(i, j int) { direct[i], direct[j] = direct[j], direct[i] })
			}
		})
	}
}
