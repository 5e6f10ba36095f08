// Command bestpeer runs a live BestPeer node: a StorM storage manager, a
// mobile-agent engine, a self-configuring peer set and a LIGLO client,
// driven by a small interactive shell on stdin.
//
// Usage:
//
//	bestpeer -store data.storm [-addr host:port] [-liglo a:1,b:2]
//	         [-peers 5] [-strategy maxcount|minhops|static] [-ttl 7]
//	         [-admin 127.0.0.1:9090] [-cache] [-cache-ttl 30s]
//
// Shell commands:
//
//	query <keyword>        broadcast a keyword search agent
//	filter <expr>          broadcast a filter agent (computational power)
//	digest <keyword>       broadcast a digesting agent (summaries only)
//	hints <keyword>        mode-2 search: collect hints, then fetch
//	put <name> <kw> <text> store a sharable object locally
//	get <name>             read a local object
//	ls                     list local objects
//	peers                  show direct peers
//	stats                  show node counters
//	trace [id]             list recent query traces, or show one hop tree
//	cache                  show answer-cache and selective-routing counters
//	rejoin                 refresh addresses through LIGLO
//	help                   this list
//	quit                   exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"strings"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/core"
	"bestpeer/internal/obs"
	"bestpeer/internal/qroute"
	"bestpeer/internal/reconfig"
	"bestpeer/internal/storm"
	"bestpeer/internal/transport"
	"bestpeer/internal/wire"
)

func main() {
	storePath := flag.String("store", "bestpeer.storm", "path of the StorM data file")
	addr := flag.String("addr", "127.0.0.1:0", "address to listen on")
	ligloList := flag.String("liglo", "", "comma-separated LIGLO servers to register with")
	maxPeers := flag.Int("peers", 5, "maximum direct peers")
	strategy := flag.String("strategy", "maxcount", "reconfiguration strategy: maxcount, minhops, static")
	ttl := flag.Int("ttl", 7, "default agent TTL")
	frames := flag.Int("frames", 64, "buffer pool frames")
	policy := flag.String("policy", "lru", "buffer replacement policy: lru, mru or clock (any other name is lru)")
	access := flag.Int("access", 0, "access level presented to peers")
	catalog := flag.Bool("catalog", false, "maintain a persistent B+tree catalog")
	index := flag.Bool("index", false, "maintain a persistent inverted keyword index; queries at this node are answered from it instead of a store scan")
	wal := flag.String("wal", "", "write-ahead log path (empty disables)")
	walSync := flag.Bool("wal-sync", false, "fsync the WAL on every operation")
	admin := flag.String("admin", "", "serve the admin endpoint (/metrics, /healthz, /queries, /events, /cache, pprof) on this address; ':port' binds loopback only; empty disables")
	cache := flag.Bool("cache", false, "enable the query answer cache and learned selective routing")
	cacheTTL := flag.Duration("cache-ttl", 0, "answer-cache freshness bound for positive entries (0 = default 30s)")
	logLevel := flag.String("log-level", "", "mirror structured events to stderr at this level: debug, info, warn, error; empty disables")
	repair := flag.Duration("repair", 15*time.Second, "crash-repair loop interval (wakes early on failure-detector kicks to drop dead peers and backfill degree); 0 disables")
	flag.Parse()

	logger, err := newLogger(*logLevel)
	if err != nil {
		log.Fatalf("bestpeer: %v", err)
	}

	store, err := storm.Open(*storePath, storm.Options{
		BufferFrames:      *frames,
		Policy:            *policy,
		PersistentCatalog: *catalog,
		PersistentIndex:   *index,
		WALPath:           *wal,
		WALSync:           *walSync,
	})
	if err != nil {
		log.Fatalf("bestpeer: open store: %v", err)
	}
	defer store.Close()

	node, err := core.NewNode(core.Config{
		Network:     transport.TCP{},
		ListenAddr:  *addr,
		Store:       store,
		MaxPeers:    *maxPeers,
		DefaultTTL:  uint8(*ttl),
		Strategy:    reconfig.ByName(*strategy),
		AccessLevel: *access,
		Logger:      logger,
		QRoute: qroute.Options{
			Enable: *cache,
			Cache:  qroute.CacheOptions{TTL: *cacheTTL},
		},
	})
	if err != nil {
		log.Fatalf("bestpeer: start node: %v", err)
	}
	defer node.Close()

	fmt.Printf("bestpeer: listening on %s, store %s (%d objects), strategy %s\n",
		node.Addr(), *storePath, store.Len(), node.Strategy().Name())

	if *admin != "" {
		srv, err := node.ServeAdmin(*admin)
		if err != nil {
			log.Fatalf("bestpeer: admin endpoint: %v", err)
		}
		fmt.Printf("bestpeer: admin endpoint on http://%s/metrics\n", srv.Addr())
	}

	if *ligloList != "" {
		servers := strings.Split(*ligloList, ",")
		if err := node.Join(servers); err != nil {
			log.Fatalf("bestpeer: join: %v", err)
		}
		fmt.Printf("bestpeer: joined as %v with %d initial peers\n", node.ID(), len(node.Peers()))
	}

	if *repair > 0 {
		stopRepair := node.StartRepair(*repair, 0)
		defer stopRepair()
	}

	shell(node, store)
}

// newLogger maps the -log-level flag to a stderr slog handler; the node
// mirrors every journalled event through it. Empty means silent (nil
// logger; the node defaults to a discard handler).
func newLogger(level string) (*slog.Logger, error) {
	if level == "" {
		return nil, nil
	}
	var lvl slog.Level
	switch level {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

func shell(node *core.Node, store *storm.Store) {
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			if !dispatch(node, store, line) {
				return
			}
		}
		fmt.Print("> ")
	}
}

// dispatch executes one shell command; it returns false to exit.
func dispatch(node *core.Node, store *storm.Store, line string) bool {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "quit", "exit":
		return false
	case "help":
		fmt.Println("query filter digest hints put get ls peers stats trace cache leave rejoin quit")
	case "query":
		runQuery(node, &agent.KeywordAgent{Query: strings.Join(args, " ")}, 1)
	case "digest":
		runQuery(node, &agent.DigestAgent{Query: strings.Join(args, " ")}, 1)
	case "filter":
		runQuery(node, &agent.FilterAgent{Expr: strings.Join(args, " "), IncludeData: false}, 1)
	case "hints":
		runHints(node, strings.Join(args, " "))
	case "put":
		if len(args) < 3 {
			fmt.Println("usage: put <name> <keyword> <text...>")
			break
		}
		obj := &storm.Object{Name: args[0], Keywords: []string{args[1]},
			Data: []byte(strings.Join(args[2:], " "))}
		if _, err := store.Put(obj); err != nil {
			fmt.Println("error:", err)
		}
	case "get":
		if len(args) != 1 {
			fmt.Println("usage: get <name>")
			break
		}
		obj, err := store.Get(args[0])
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Printf("%s [%s] %q\n", obj.Name, strings.Join(obj.Keywords, ","), obj.Data)
	case "ls":
		for _, name := range store.Names() {
			fmt.Println(" ", name)
		}
	case "peers":
		for _, p := range node.Peers() {
			fmt.Printf("  %s (%v)\n", p.Addr, p.ID)
		}
	case "stats":
		s := node.Stats()
		fmt.Printf("  executed=%d forwarded=%d dup=%d answers=%d reconfigs=%d\n",
			s.AgentsExecuted, s.AgentsForwarded, s.DuplicatesDropped,
			s.AnswersSent, s.Reconfigs)
		fmt.Printf("  pool: policy=%s hitrate=%.2f\n",
			store.Pool().Policy(), store.Pool().HitRate())
	case "trace":
		runTrace(node, args)
	case "cache":
		runCache(node)
	case "leave":
		// Graceful departure: peers get Depart notices with replacement
		// hints, the home LIGLO marks us offline. The process stays up —
		// "rejoin" re-enters the overlay under the same BPID.
		if err := node.Leave(); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println("  left the overlay (rejoin to come back)")
		}
	case "rejoin":
		if err := node.Rejoin(); err != nil {
			fmt.Println("error:", err)
		}
	default:
		fmt.Printf("unknown command %q (try help)\n", cmd)
	}
	return true
}

func runQuery(node *core.Node, ag agent.Agent, mode uint8) {
	res, err := node.Query(ag, core.QueryOptions{Mode: mode, Timeout: 2 * time.Second})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, a := range res.Answers {
		fmt.Printf("  %-30s from %s (hops %d, %dB, %v)\n",
			a.Result.Name, a.PeerAddr, a.Hops, len(a.Result.Data), a.At.Round(time.Millisecond))
	}
	fmt.Printf("  %d answers in %v (reconfigured=%v, trace %v)\n",
		len(res.Answers), res.Elapsed.Round(time.Millisecond), res.Reconfigured, res.ID)
}

// runTrace lists recent query traces, or renders one trace's hop tree.
func runTrace(node *core.Node, args []string) {
	if len(args) == 0 {
		for _, t := range node.RecentTraces(10) {
			fmt.Printf("  %v  %d spans, max hop %d\n", t.ID, len(t.Spans), t.MaxHop())
		}
		return
	}
	id, err := wire.ParseMsgID(args[0])
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	t, ok := node.Trace(id)
	if !ok {
		fmt.Println("no trace for", args[0], "(evicted, or issued elsewhere)")
		return
	}
	for _, root := range t.Tree() {
		printSpanTree(root, "  ")
	}
}

func printSpanTree(n *obs.SpanNode, indent string) {
	s := n.Span
	if s.Drop != "" {
		fmt.Printf("%s%s hop %d dropped (%s)\n", indent, s.Peer, s.Hop, s.Drop)
	} else {
		fmt.Printf("%s%s hop %d: %d matches, wait %v, exec %v, fan-out %d\n",
			indent, s.Peer, s.Hop, s.Matches,
			time.Duration(s.WaitNS).Round(time.Microsecond),
			time.Duration(s.ExecNS).Round(time.Microsecond), s.FanOut)
	}
	for _, c := range n.Children {
		printSpanTree(c, indent+"  ")
	}
}

// runCache prints the qroute answer-cache and routing-index counters —
// the shell view of the admin endpoint's /cache route.
func runCache(node *core.Node) {
	s := node.CacheStats()
	if !s.Enabled {
		fmt.Println("  cache disabled (start with -cache)")
		return
	}
	c := s.Cache
	fmt.Printf("  cache: entries=%d bytes=%d epoch=%d\n", c.Entries, c.Bytes, c.Epoch)
	fmt.Printf("  hits=%d negative=%d misses=%d evicted=%d expired=%d invalidated=%d\n",
		c.Hits, c.NegativeHits, c.Misses, c.Evictions, c.Expired, c.Invalidated)
	fmt.Printf("  routing: terms=%d selective=%d flood=%d explored=%d\n",
		s.Terms, s.Selective, s.Flood, s.Explored)
}

// runHints runs the paper's second access mode: peers advertise matching
// names, then each hinted object is fetched from its peer out-of-network.
func runHints(node *core.Node, query string) {
	res, err := node.QueryAndFetch(&agent.KeywordAgent{Query: query},
		core.QueryOptions{Timeout: 2 * time.Second})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("  %d hints, %d fetched\n", len(res.Hints), len(res.Answers))
	for _, a := range res.Answers {
		fmt.Printf("    %s from %s (%dB)\n", a.Result.Name, a.PeerAddr, len(a.Result.Data))
	}
}
