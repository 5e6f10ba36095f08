package bestpeer

// Micro-benchmarks of the load-bearing components. The per-figure
// benchmarks of the paper's evaluation live beside the simulator, in
// internal/bench/figure_bench_test.go.

import (
	"fmt"
	"path/filepath"
	"testing"

	"bestpeer/internal/agent"
	"bestpeer/internal/storm"
	"bestpeer/internal/wire"
	"bestpeer/internal/workload"
)

// Micro-benchmarks of the substrates.

func BenchmarkWireEncodeDecode(b *testing.B) {
	env := &wire.Envelope{
		Kind: wire.KindAgent, ID: wire.NewMsgID(), TTL: 7,
		From: "a:1", To: "b:2", Body: make([]byte, 2048),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame, err := wire.EncodeEnvelope(env)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.DecodeEnvelope(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStormPut(b *testing.B) {
	store, err := storm.Open(filepath.Join(b.TempDir(), "b.storm"), storm.Options{BufferFrames: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	data := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj := &storm.Object{Name: fmt.Sprintf("o%09d", i), Keywords: []string{"k"}, Data: data}
		if _, err := store.Put(obj); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStormMatch1000(b *testing.B) {
	// The paper's per-node operation: compare a keyword against 1000
	// stored 1 KB objects.
	store, err := storm.Open(filepath.Join(b.TempDir(), "m.storm"), storm.Options{BufferFrames: 512})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	spec := workload.Default(1)
	if err := spec.Populate(0, store); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Match(spec.Keyword(i % 100)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStormPolicies compares buffer replacement strategies under a
// looping pass over every object, in page order, that exceeds the pool
// (the StorM ablation). The pass reads by name: Store.Scan reads pages the
// pool does not hold past it, so it no longer exercises the policy.
func BenchmarkStormPolicies(b *testing.B) {
	for _, policy := range []string{"lru", "mru", "clock"} {
		b.Run(policy, func(b *testing.B) {
			store, err := storm.Open(filepath.Join(b.TempDir(), "p.storm"),
				storm.Options{BufferFrames: 16, Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			data := make([]byte, 1024)
			names := make([]string, 100)
			for i := range names {
				names[i] = fmt.Sprintf("o%03d", i)
				store.Put(&storm.Object{Name: names[i], Data: data})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, name := range names {
					if _, err := store.Get(name); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(store.Pool().HitRate()*100, "hit%")
		})
	}
}

func BenchmarkFilterCompile(b *testing.B) {
	const expr = "keyword=finance & (size>512 | name~report) & !data~draft"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := agent.CompileFilter(expr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAgentPacketRoundTrip(b *testing.B) {
	ag := &agent.KeywordAgent{Query: "some keyword"}
	state, _ := ag.State()
	p := &agent.Packet{Class: ag.Class(), State: state, Base: "base:1", Mode: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		body := agent.EncodePacket(p)
		if _, err := agent.DecodePacket(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBTreePut measures catalog insert throughput.
func BenchmarkBTreePut(b *testing.B) {
	store, err := storm.Open(filepath.Join(b.TempDir(), "bt.storm"),
		storm.Options{BufferFrames: 256, PersistentCatalog: true})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	data := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Put(&storm.Object{Name: fmt.Sprintf("k%09d", i), Data: data}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend measures logged-put throughput (no fsync).
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	store, err := storm.Open(filepath.Join(dir, "w.storm"),
		storm.Options{BufferFrames: 256, WALPath: filepath.Join(dir, "w.wal")})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	data := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Put(&storm.Object{Name: fmt.Sprintf("w%09d", i), Data: data}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexedLookup compares, on the paper's 1000-object store, the
// raw posting lookup and the Match an indexed store plans from it with the
// Match an unindexed twin store scans for.
func BenchmarkIndexedLookup(b *testing.B) {
	spec := workload.Default(1)
	open := func(name string, indexed bool) *storm.Store {
		store, err := storm.Open(filepath.Join(b.TempDir(), name),
			storm.Options{BufferFrames: 512, PersistentIndex: indexed})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { store.Close() })
		if err := spec.Populate(0, store); err != nil {
			b.Fatal(err)
		}
		return store
	}
	indexed, plain := open("ix.storm", true), open("plain.storm", false)
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := indexed.LookupKeyword(spec.Keyword(i % 100)); err != nil {
				b.Fatal(err)
			}
		}
	})
	for name, store := range map[string]*storm.Store{"plan": indexed, "scan": plain} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := store.Match(spec.Keyword(i % 100)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
