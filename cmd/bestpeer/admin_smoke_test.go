package main

import (
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/core"
	"bestpeer/internal/qroute"
	"bestpeer/internal/reconfig"
	"bestpeer/internal/storm"
	"bestpeer/internal/transport"
)

// TestAdminEndpointSmoke is the ci-target smoke test for the -admin
// flag: it boots the same stack main() boots (StorM store, TCP
// transport) with the admin endpoint enabled, issues a query, and
// scrapes /metrics, /healthz and /queries over real HTTP.
func TestAdminEndpointSmoke(t *testing.T) {
	store, err := storm.Open(filepath.Join(t.TempDir(), "smoke.storm"), storm.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	defer store.Close()
	if _, err := store.Put(&storm.Object{
		Name: "smoke.txt", Keywords: []string{"smoke"}, Data: []byte("hello"),
	}); err != nil {
		t.Fatalf("put: %v", err)
	}

	node, err := core.NewNode(core.Config{
		Network:    transport.TCP{},
		ListenAddr: "127.0.0.1:0",
		Store:      store,
		MaxPeers:   5,
		DefaultTTL: 7,
		Strategy:   reconfig.ByName("maxcount"),
		QRoute:     qroute.Options{Enable: true},
	})
	if err != nil {
		t.Fatalf("start node: %v", err)
	}
	defer node.Close()

	srv, err := node.ServeAdmin("") // empty addr means loopback, random port
	if err != nil {
		t.Fatalf("serve admin: %v", err)
	}

	res, err := node.Query(&agent.KeywordAgent{Query: "smoke"},
		core.QueryOptions{Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatalf("query: %v", err)
	}

	metrics := httpGet(t, "http://"+srv.Addr()+"/metrics")
	for _, family := range []string{
		"bestpeer_node_queries_total",
		"bestpeer_transport_messages_sent_total",
		"bestpeer_transport_bytes_sent_total",
		"bestpeer_transport_frames_sent_total",
		"bestpeer_liglo_client_calls_total",
		"bestpeer_storm_objects",
		"# TYPE bestpeer_storm_pool_misses counter",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("/metrics is missing family %s", family)
		}
	}
	if !strings.Contains(metrics, "bestpeer_node_queries_total 1") {
		t.Errorf("/metrics does not count the query:\n%s", metrics)
	}

	if body := httpGet(t, "http://"+srv.Addr()+"/healthz"); !strings.Contains(body, node.Addr()) {
		t.Errorf("/healthz does not report the node address: %s", body)
	}
	trace := httpGet(t, "http://"+srv.Addr()+"/queries/"+res.ID.String())
	if !strings.Contains(trace, "tree") {
		t.Errorf("/queries/%v is not a trace payload: %s", res.ID, trace)
	}

	// A second identical query is served from the answer cache; /cache
	// must report the subsystem enabled and the hit counted.
	if _, err := node.Query(&agent.KeywordAgent{Query: "smoke"},
		core.QueryOptions{Timeout: 200 * time.Millisecond}); err != nil {
		t.Fatalf("repeat query: %v", err)
	}
	cache := httpGet(t, "http://"+srv.Addr()+"/cache")
	if !strings.Contains(cache, `"enabled": true`) {
		t.Errorf("/cache does not report the subsystem enabled: %s", cache)
	}
	if !strings.Contains(cache, `"hits": 1`) {
		t.Errorf("/cache does not count the repeat query's hit: %s", cache)
	}
	if !strings.Contains(httpGet(t, "http://"+srv.Addr()+"/metrics"),
		"bestpeer_qroute_cache_hits_total") {
		t.Errorf("/metrics is missing the qroute family")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}
