package agent

import (
	"reflect"
	"testing"

	"bestpeer/internal/storm"
	"bestpeer/internal/wire"
)

func topkStore(t *testing.T) *storm.Store {
	t.Helper()
	s := testStore(t) // song-1 (4B, jazz), song-2 (8B, rock), jazz-notes (2B)
	s.Put(&storm.Object{Name: "song-3", Keywords: []string{"jazz"}, Data: make([]byte, 100)})
	s.Put(&storm.Object{Name: "song-4", Keywords: []string{"jazz"}, Data: make([]byte, 50)})
	return s
}

func TestTopKAgentSelectsLargest(t *testing.T) {
	store := topkStore(t)
	a := &TopKAgent{Query: "jazz", K: 2, IncludeData: true}
	res, err := a.Execute(&Context{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %+v", res)
	}
	if res[0].Name != "song-3" || len(res[0].Data) != 100 {
		t.Fatalf("first = %s (%dB)", res[0].Name, len(res[0].Data))
	}
	if res[1].Name != "song-4" || len(res[1].Data) != 50 {
		t.Fatalf("second = %s (%dB)", res[1].Name, len(res[1].Data))
	}
}

func TestTopKAgentNamesOnlyAnnotatesSizes(t *testing.T) {
	store := topkStore(t)
	a := &TopKAgent{Query: "jazz", K: 1}
	res, err := a.Execute(&Context{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || string(res[0].Data) != "100 bytes" {
		t.Fatalf("results = %+v", res)
	}
}

func TestTopKAgentKLargerThanMatches(t *testing.T) {
	store := topkStore(t)
	a := &TopKAgent{Query: "rock", K: 99}
	res, err := a.Execute(&Context{Store: store})
	if err != nil || len(res) != 1 {
		t.Fatalf("results = %+v, %v", res, err)
	}
}

func TestTopKAgentDeterministicTies(t *testing.T) {
	store := testStore(t)
	store.Put(&storm.Object{Name: "tie-b", Keywords: []string{"t"}, Data: []byte("xxxx")})
	store.Put(&storm.Object{Name: "tie-a", Keywords: []string{"t"}, Data: []byte("yyyy")})
	a := &TopKAgent{Query: "t", K: 1}
	res, _ := a.Execute(&Context{Store: store})
	if len(res) != 1 || res[0].Name != "tie-a" {
		t.Fatalf("tie broke to %+v, want tie-a (name order)", res)
	}
}

func TestTopKStateRoundTrip(t *testing.T) {
	r := NewRegistry()
	if err := RegisterBuiltins(r); err != nil {
		t.Fatal(err)
	}
	a := &TopKAgent{Query: "q", K: 7, IncludeData: true}
	st, err := a.State()
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.New(topKClass, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestTopKRejectsInvalidK(t *testing.T) {
	a := &TopKAgent{Query: "q", K: 0}
	if _, err := a.State(); err == nil {
		t.Fatal("K=0 shipped")
	}
	f := NewTopKFactory()
	var e wire.Encoder
	e.String("q")
	e.Uvarint(0)
	e.Bool(false)
	if _, err := f.New(e.Bytes()); err == nil {
		t.Fatal("K=0 reconstructed")
	}
}

func TestTopKHonoursActiveObjects(t *testing.T) {
	store := topkStore(t)
	store.Put(&storm.Object{
		Name: "jazz-classified", Keywords: []string{"jazz"},
		Kind: storm.ActiveObject, ActiveClass: "vault",
		Data: make([]byte, 2000),
	})
	set := NewActiveSet()
	set.Add(&LevelFilter{FilterName: "vault", MinLevel: 9})
	// Low clearance: the big classified object is invisible, so top-1 is
	// the 100-byte public one.
	a := &TopKAgent{Query: "jazz", K: 1}
	res, err := a.Execute(&Context{Store: store, ActiveNodes: set, AccessLevel: 0})
	if err != nil || len(res) != 1 || res[0].Name != "song-3" {
		t.Fatalf("low clearance top = %+v, %v", res, err)
	}
	// High clearance sees it.
	res, _ = a.Execute(&Context{Store: store, ActiveNodes: set, AccessLevel: 9})
	if len(res) != 1 || res[0].Name != "jazz-classified" {
		t.Fatalf("high clearance top = %+v", res)
	}
}
