package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"bestpeer/internal/liglo"
	"bestpeer/internal/obs"
	"bestpeer/internal/transport"
)

// TestLigloRingSmoke is the ci-target smoke test for -ring: three LIGLO
// servers over real TCP join one chord ring, a member registers, the
// key's owner is killed, and the record re-resolves from a replica via
// the client's redirect/fallback path — with ring membership surfaced
// on the admin endpoint exactly as main() serves it.
func TestLigloRingSmoke(t *testing.T) {
	fast := func(join string) *liglo.RingConfig {
		return &liglo.RingConfig{
			Join:            join,
			Successors:      4,
			StabilizeEvery:  25 * time.Millisecond,
			FixFingersEvery: 25 * time.Millisecond,
			CheckPredEvery:  25 * time.Millisecond,
			ReplicateEvery:  50 * time.Millisecond,
		}
	}
	servers := make([]*liglo.Server, 0, 3)
	for i := 0; i < 3; i++ {
		join := ""
		if i > 0 {
			join = servers[0].Addr()
		}
		srv, err := liglo.NewServer(transport.TCP{}, "127.0.0.1:0",
			liglo.ServerConfig{Ring: fast(join)})
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		defer srv.Close()
		servers = append(servers, srv)
	}

	// The maintenance loops converge the ring on their own.
	waitFor(t, 5*time.Second, "ring convergence", func() bool {
		for _, s := range servers {
			found := map[string]bool{}
			for _, r := range s.Ring().Snapshot().Successors {
				found[r.Addr] = true
			}
			for _, other := range servers {
				if other != s && !found[other.Addr()] {
					return false
				}
			}
		}
		return true
	})

	// The admin endpoint reports ring membership, as main() serves it.
	asrv, err := obs.StartAdmin("", obs.AdminConfig{
		Health: func() any {
			return map[string]any{
				"status": "ok", "addr": servers[1].Addr(),
				"ring":            servers[1].Ring().Snapshot(),
				"foreign_records": servers[1].ForeignRecords(),
			}
		},
	})
	if err != nil {
		t.Fatalf("admin endpoint: %v", err)
	}
	defer asrv.Close()

	addrs := make([]string, len(servers))
	for i, s := range servers {
		addrs[i] = s.Addr()
	}
	c := liglo.NewClient(transport.TCP{}, nil)
	defer c.Close()
	id, _, err := c.RegisterAny(addrs, "peer-1:7000") // servers[0] accepts
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	waitFor(t, 5*time.Second, "record replication", func() bool {
		return servers[1].ForeignRecords() > 0 && servers[2].ForeignRecords() > 0
	})

	health := httpGetBody(t, "http://"+asrv.Addr()+"/healthz")
	for _, want := range []string{`"successors"`, servers[0].Addr(), `"foreign_records"`} {
		if !strings.Contains(health, want) {
			t.Errorf("/healthz missing %s: %s", want, health)
		}
	}

	// Kill the key's owner without a goodbye; the survivors detect the
	// failure and a replica serves the lookup.
	if err := servers[0].Close(); err != nil {
		t.Fatalf("kill owner: %v", err)
	}
	waitFor(t, 10*time.Second, "re-resolution after owner death", func() bool {
		addr, online, err := c.Lookup(id)
		return err == nil && online && addr == "peer-1:7000"
	})
}

func waitFor(t *testing.T, limit time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}
