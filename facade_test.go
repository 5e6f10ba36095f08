package bestpeer_test

// End-to-end exercise of the public façade: everything a downstream user
// touches, with no imports from internal/.

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	bestpeer "bestpeer"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	nw := bestpeer.NewInProcNetwork()

	// A LIGLO server for identity.
	srv, err := bestpeer.NewLigloServer(nw, "liglo", bestpeer.LigloServerConfig{InitialPeers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Three nodes sharing a few objects each.
	var nodes []*bestpeer.Node
	for i := 0; i < 3; i++ {
		store, err := bestpeer.OpenStore(filepath.Join(dir, fmt.Sprintf("n%d.storm", i)),
			bestpeer.StoreOptions{PersistentCatalog: true})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		store.Put(&bestpeer.Object{
			Name:     fmt.Sprintf("track-%d.mp3", i),
			Keywords: []string{"music"},
			Data:     []byte(fmt.Sprintf("audio-%d", i)),
		})
		node, err := bestpeer.NewNode(bestpeer.Config{
			Network:    nw,
			ListenAddr: fmt.Sprintf("node-%d", i),
			Store:      store,
			MaxPeers:   4,
			Strategy:   bestpeer.StrategyByName("maxcount"),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		if err := node.Join([]string{srv.Addr()}); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	if nodes[2].ID().IsZero() {
		t.Fatal("join did not assign a BPID")
	}

	// The last joiner knows the earlier ones as initial peers.
	if len(nodes[2].Peers()) != 2 {
		t.Fatalf("initial peers = %v", nodes[2].Peers())
	}

	// Keyword search across the network.
	res, err := nodes[2].Query(&bestpeer.KeywordAgent{Query: "music"}, bestpeer.QueryOptions{
		Timeout: 2 * time.Second, WaitAnswers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 3 {
		t.Fatalf("answers = %d, want 3", len(res.Answers))
	}

	// Shipped-filter computation.
	pred, err := bestpeer.CompileFilter("keyword=music & size>0")
	if err != nil {
		t.Fatal(err)
	}
	_ = pred
	fres, err := nodes[2].Query(&bestpeer.FilterAgent{Expr: "name~track", IncludeData: false},
		bestpeer.QueryOptions{Timeout: 2 * time.Second, WaitAnswers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(fres.Answers) != 3 {
		t.Fatalf("filter answers = %d", len(fres.Answers))
	}

	// Top-K across the network.
	kres, err := nodes[2].Query(&bestpeer.TopKAgent{Query: "music", K: 1},
		bestpeer.QueryOptions{Timeout: 2 * time.Second, WaitAnswers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(kres.Answers) != 3 {
		t.Fatalf("topk answers = %d", len(kres.Answers))
	}

	// LIGLO lookup of a peer's identity.
	cli := bestpeer.NewLigloClient(nw)
	addr, online, err := cli.Lookup(nodes[0].ID())
	if err != nil || !online || addr != nodes[0].Addr() {
		t.Fatalf("lookup = %s %v %v", addr, online, err)
	}
}

func TestPublicAPIActiveObjects(t *testing.T) {
	dir := t.TempDir()
	nw := bestpeer.NewInProcNetwork()

	owner, err := bestpeer.OpenStore(filepath.Join(dir, "o.storm"), bestpeer.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	owner.Put(&bestpeer.Object{
		Name:        "report",
		Keywords:    []string{"finance"},
		Kind:        bestpeer.ActiveObject,
		ActiveClass: "level-filter",
		Data:        []byte("public\n!5 secret"),
	})
	ownerNode, err := bestpeer.NewNode(bestpeer.Config{
		Network: nw, ListenAddr: "owner", Store: owner,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ownerNode.Close()

	reqStore, err := bestpeer.OpenStore(filepath.Join(dir, "r.storm"), bestpeer.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reqStore.Close()
	requester, err := bestpeer.NewNode(bestpeer.Config{
		Network: nw, ListenAddr: "req", Store: reqStore, AccessLevel: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer requester.Close()
	requester.SetPeers([]bestpeer.Peer{{Addr: ownerNode.Addr()}})

	res, err := requester.Query(&bestpeer.KeywordAgent{Query: "finance"}, bestpeer.QueryOptions{
		Timeout: 2 * time.Second, WaitAnswers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || string(res.Answers[0].Result.Data) != "public" {
		t.Fatalf("active object leaked: %+v", res.Answers)
	}
}
