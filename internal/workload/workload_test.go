package workload

import (
	"path/filepath"
	"testing"

	"bestpeer/internal/storm"
)

func smallSpec() *Spec {
	return &Spec{ObjectsPerNode: 60, ObjectSize: 64, Vocabulary: 10, Seed: 42}
}

func TestObjectsDeterministic(t *testing.T) {
	s := smallSpec()
	a := s.Objects(3)
	b := s.Objects(3)
	if len(a) != 60 || len(b) != 60 {
		t.Fatalf("len = %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Keywords[0] != b[i].Keywords[0] ||
			string(a[i].Data) != string(b[i].Data) {
			t.Fatalf("object %d differs between generations", i)
		}
	}
}

func TestObjectsDifferAcrossNodes(t *testing.T) {
	s := smallSpec()
	a, b := s.Objects(0), s.Objects(1)
	same := 0
	for i := range a {
		if a[i].Keywords[0] == b[i].Keywords[0] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("all keyword assignments identical across nodes")
	}
	if a[0].Name == b[0].Name {
		t.Fatal("object names collide across nodes")
	}
}

func TestObjectSizes(t *testing.T) {
	s := smallSpec()
	for _, o := range s.Objects(0) {
		if len(o.Data) != 64 {
			t.Fatalf("object %s has %d bytes", o.Name, len(o.Data))
		}
	}
}

func TestMatchCountAgreesWithStore(t *testing.T) {
	// The analytic count must equal what the real storage manager finds.
	s := smallSpec()
	for node := 0; node < 3; node++ {
		st, err := storm.Open(filepath.Join(t.TempDir(), "w.storm"), storm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Populate(node, st); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < s.Vocabulary; k++ {
			q := s.Keyword(k)
			hits, err := st.Match(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := s.MatchCount(node, q); len(hits) != want {
				t.Fatalf("node %d query %s: store=%d analytic=%d", node, q, len(hits), want)
			}
		}
		st.Close()
	}
}

func TestKeywordCoverage(t *testing.T) {
	// Every node's matches over the whole vocabulary sum to all objects.
	s := smallSpec()
	total := 0
	for k := 0; k < s.Vocabulary; k++ {
		total += s.MatchCount(2, s.Keyword(k))
	}
	if total != s.ObjectsPerNode {
		t.Fatalf("vocabulary matches sum to %d, want %d", total, s.ObjectsPerNode)
	}
}

func TestPlantedKeywordOnlyAtHolders(t *testing.T) {
	s := smallSpec()
	s.PlantedKeyword = "needle"
	s.Holders = []int{2, 5}
	s.PlantedHits = 4

	for node := 0; node < 8; node++ {
		want := 0
		if node == 2 || node == 5 {
			want = 4
		}
		if got := s.MatchCount(node, "needle"); got != want {
			t.Fatalf("node %d planted matches = %d, want %d", node, got, want)
		}
	}
	// Agrees with the real store too.
	st, err := storm.Open(filepath.Join(t.TempDir(), "p.storm"), storm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := s.Populate(5, st); err != nil {
		t.Fatal(err)
	}
	hits, _ := st.Match("needle")
	if len(hits) != 4 {
		t.Fatalf("store planted matches = %d", len(hits))
	}
	// Holder still has its full object count.
	if st.Len() != s.ObjectsPerNode {
		t.Fatalf("holder object count = %d", st.Len())
	}
}

func TestUniformQueriesDeterministicAndInVocab(t *testing.T) {
	s := smallSpec()
	a := s.UniformQueries(7, 50)
	b := s.UniformQueries(7, 50)
	vocab := map[string]bool{}
	for k := 0; k < s.Vocabulary; k++ {
		vocab[s.Keyword(k)] = true
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("uniform queries nondeterministic")
		}
		if !vocab[a[i]] {
			t.Fatalf("query %q outside vocabulary", a[i])
		}
	}
}

func TestDefaultSpecMatchesPaper(t *testing.T) {
	s := Default(1)
	if s.ObjectsPerNode != 1000 || s.ObjectSize != 1024 {
		t.Fatalf("default spec %+v", s)
	}
}

func TestHolderDistribution(t *testing.T) {
	// Keyword assignment should be roughly balanced over the vocabulary.
	s := &Spec{ObjectsPerNode: 1000, ObjectSize: 8, Vocabulary: 10, Seed: 9}
	counts := make([]int, s.Vocabulary)
	for i := 0; i < s.ObjectsPerNode; i++ {
		counts[s.keywordIndex(0, i)]++
	}
	for k, c := range counts {
		if c < 50 || c > 200 { // expected 100 each
			t.Fatalf("keyword %d count %d badly skewed", k, c)
		}
	}
}
