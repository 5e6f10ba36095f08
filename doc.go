// Package bestpeer is a Go implementation of BestPeer, the
// self-configurable peer-to-peer system of Ng, Ooi and Tan (ICDE 2002).
//
// A BestPeer node couples four subsystems:
//
//   - a persistent object storage manager (the StorM substitute) holding
//     the node's sharable data behind a buffer pool with pluggable
//     replacement strategies;
//   - a mobile-agent engine: queries are agents that are cloned to every
//     direct peer, execute at each peer's site against its store, and
//     return answers directly to the querying node;
//   - a self-configuring peer set: after each query, a pluggable strategy
//     (MaxCount, MinHops, …) promotes the most beneficial observed peers
//     to direct peers;
//   - a LIGLO client: registration with Location-Independent GLObal
//     names Lookup servers gives the node a BPID that survives address
//     changes.
//
// This package is a façade re-exporting the library's public surface;
// the implementation lives under internal/.
//
// Quick start:
//
//	store, _ := bestpeer.OpenStore("data.storm", bestpeer.StoreOptions{})
//	node, _ := bestpeer.NewNode(bestpeer.Config{
//		Network: bestpeer.TCPNetwork(),
//		Store:   store,
//	})
//	node.Join([]string{"liglo.example.org:7100"})
//	res, _ := node.Query(&bestpeer.KeywordAgent{Query: "jazz"},
//		bestpeer.QueryOptions{})
//	for _, a := range res.Answers {
//		fmt.Println(a.Result.Name, "from", a.PeerAddr)
//	}
package bestpeer

import (
	"bestpeer/internal/agent"
	"bestpeer/internal/core"
	"bestpeer/internal/liglo"
	"bestpeer/internal/reconfig"
	"bestpeer/internal/storm"
	"bestpeer/internal/transport"
	"bestpeer/internal/wire"
)

// Node types.
type (
	// Node is a live BestPeer participant.
	Node = core.Node
	// Config configures a Node.
	Config = core.Config
	// Peer is a directly connected peer.
	Peer = core.Peer
	// QueryOptions tunes one query broadcast.
	QueryOptions = core.QueryOptions
	// QueryResult is everything a query produced.
	QueryResult = core.QueryResult
	// Answer is one result attributed to the peer that produced it.
	Answer = core.Answer
	// Stats counts node activity.
	Stats = core.Stats
)

// NewNode starts a node with the given configuration.
func NewNode(cfg Config) (*Node, error) { return core.NewNode(cfg) }

// Identity types.
type (
	// BPID is a BestPeer global identity issued by a LIGLO server.
	BPID = wire.BPID
)

// Agent types.
type (
	// Agent is a mobile task executed at peers' sites.
	Agent = agent.Agent
	// Result is one answer produced by an agent.
	Result = agent.Result
	// KeywordAgent searches peers' stores for a keyword.
	KeywordAgent = agent.KeywordAgent
	// FilterAgent ships a filter expression for remote evaluation.
	FilterAgent = agent.FilterAgent
	// DigestAgent returns per-match summaries instead of data.
	DigestAgent = agent.DigestAgent
	// TopKAgent returns only the K largest matches per peer.
	TopKAgent = agent.TopKAgent
	// Registry tracks a node's agent classes.
	Registry = agent.Registry
	// ActiveSet holds a node's active elements.
	ActiveSet = agent.ActiveSet
	// LevelFilter is the built-in line-granular access filter.
	LevelFilter = agent.LevelFilter
)

// NewRegistry returns an empty agent class registry.
func NewRegistry() *Registry { return agent.NewRegistry() }

// RegisterBuiltins installs the built-in agent classes.
func RegisterBuiltins(r *Registry) error { return agent.RegisterBuiltins(r) }

// NewActiveSet returns an empty active-element set.
func NewActiveSet() *ActiveSet { return agent.NewActiveSet() }

// CompileFilter parses a filter expression (see FilterAgent).
func CompileFilter(src string) (agent.Predicate, error) { return agent.CompileFilter(src) }

// Storage types.
type (
	// Store is the node-local persistent object store.
	Store = storm.Store
	// Object is the unit of sharable data.
	Object = storm.Object
	// StoreOptions configures a Store.
	StoreOptions = storm.Options
)

// Object kinds.
const (
	// StaticObject is a plain file shared in its entirety.
	StaticObject = storm.StaticObject
	// ActiveObject couples data with an owner-defined access filter.
	ActiveObject = storm.ActiveObject
)

// OpenStore opens (or creates) the object store at path.
func OpenStore(path string, opts StoreOptions) (*Store, error) { return storm.Open(path, opts) }

// Reconfiguration strategies.
type (
	// Strategy ranks observed peers after a query.
	Strategy = reconfig.Strategy
	// MaxCount keeps the peers returning the most answers.
	MaxCount = reconfig.MaxCount
	// MinHops keeps far-away answer providers to shorten future paths.
	MinHops = reconfig.MinHops
	// StaticPeers disables reconfiguration.
	StaticPeers = reconfig.Static
)

// StrategyByName resolves "maxcount", "minhops" or "static".
func StrategyByName(name string) Strategy { return reconfig.ByName(name) }

// Networking.
type (
	// Network abstracts connectivity (TCP or in-process).
	Network = transport.Network
	// InProcNetwork is an in-memory network for tests and examples.
	InProcNetwork = transport.InProc
)

// TCPNetwork returns the real-TCP network.
func TCPNetwork() Network { return transport.TCP{} }

// NewInProcNetwork returns an isolated in-memory network.
func NewInProcNetwork() *InProcNetwork { return transport.NewInProc() }

// LIGLO server and client.
type (
	// LigloServer issues BPIDs and tracks member addresses.
	LigloServer = liglo.Server
	// LigloServerConfig tunes a LigloServer.
	LigloServerConfig = liglo.ServerConfig
	// LigloClient talks to LIGLO servers.
	LigloClient = liglo.Client
	// PeerInfo pairs a member's BPID with its last known address.
	PeerInfo = liglo.PeerInfo
)

// NewLigloServer starts a LIGLO server on the network.
func NewLigloServer(n Network, addr string, cfg LigloServerConfig) (*LigloServer, error) {
	return liglo.NewServer(n, addr, cfg)
}

// NewLigloClient returns a client that dials over the given network.
func NewLigloClient(n Network) *LigloClient { return liglo.NewClient(n, nil) }
