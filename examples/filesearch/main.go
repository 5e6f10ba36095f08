// Filesearch: a BestPeer network over real TCP with a LIGLO server.
//
// It starts one LIGLO server and five nodes on localhost TCP ports. Each
// node registers (receiving a BPID and its initial peers from LIGLO),
// shares a small music library, and then one node searches the network.
// Finally a node "moves": it comes back on a new port, rejoins through
// LIGLO, and its peers find it at the new address — the paper's
// location-independent identity in action.
//
// Run with: go run ./examples/filesearch
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/core"
	"bestpeer/internal/liglo"
	"bestpeer/internal/storm"
	"bestpeer/internal/transport"
)

var library = map[string][]string{
	"alice": {"kind-of-blue.mp3:jazz", "giant-steps.mp3:jazz"},
	"bob":   {"ride-of-the-valkyries.mp3:classical"},
	"carol": {"a-love-supreme.mp3:jazz", "appalachian-spring.mp3:classical"},
	"dave":  {"take-five.mp3:jazz"},
	"erin":  {"the-planets.mp3:classical"},
}

func main() {
	dir, err := os.MkdirTemp("", "bestpeer-filesearch")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	tcp := transport.TCP{}
	srv, err := liglo.NewServer(tcp, "127.0.0.1:0", liglo.ServerConfig{InitialPeers: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("liglo server on %s\n", srv.Addr())

	start := func(name string) *core.Node {
		store, err := storm.Open(filepath.Join(dir, name+".storm"), storm.Options{})
		if err != nil {
			log.Fatal(err)
		}
		for _, entry := range library[name] {
			var file, genre string
			fmt.Sscanf(entry, "%s", &file)
			for i := range entry {
				if entry[i] == ':' {
					file, genre = entry[:i], entry[i+1:]
				}
			}
			store.Put(&storm.Object{Name: file, Keywords: []string{genre},
				Data: []byte("contents of " + file)})
		}
		node, err := core.NewNode(core.Config{
			Network: tcp, ListenAddr: "127.0.0.1:0", Store: store, MaxPeers: 4,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := node.Join([]string{srv.Addr()}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5s joined as %v with %d peers\n", name, node.ID(), len(node.Peers()))
		return node
	}

	alice := start("alice")
	bob := start("bob")
	carol := start("carol")
	dave := start("dave")
	erin := start("erin")
	nodes := []*core.Node{alice, bob, carol, dave, erin}
	defer func() {
		for _, n := range nodes {
			_ = n.Close() // demo teardown; errors carry no lesson here
		}
	}()

	// Erin searches for jazz across the whole network.
	res, err := erin.Query(&agent.KeywordAgent{Query: "jazz"}, core.QueryOptions{
		Timeout: 2 * time.Second, WaitAnswers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nerin's jazz search: %d answers\n", len(res.Answers))
	for _, a := range res.Answers {
		fmt.Printf("  %-22s from %s\n", a.Result.Name, a.PeerAddr)
	}

	// Dave disconnects and reappears at a different port with the same
	// identity.
	daveID := dave.ID()
	daveStorePath := filepath.Join(dir, "dave.storm")
	_ = dave.Close() // dave is "disconnecting"; the error is irrelevant

	store2, err := storm.Open(daveStorePath+"-2", storm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	store2.Put(&storm.Object{Name: "take-five.mp3", Keywords: []string{"jazz"},
		Data: []byte("contents of take-five.mp3")})
	dave2, err := core.NewNode(core.Config{
		Network: tcp, ListenAddr: "127.0.0.1:0", Store: store2, MaxPeers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer dave2.Close()
	dave2.AdoptIdentity(daveID)
	if err := dave2.Rejoin(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndave moved: same BPID %v, new address %s\n", dave2.ID(), dave2.Addr())

	// Erin rejoins: LIGLO resolves dave's BPID to the new address.
	if err := erin.Rejoin(); err != nil {
		log.Fatal(err)
	}
	addr, online, err := liglo.NewClient(tcp, nil).Lookup(daveID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lookup of %v -> %s (online=%v)\n", daveID, addr, online)
}
