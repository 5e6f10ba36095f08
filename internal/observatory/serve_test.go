package observatory

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bestpeer/internal/agent"
	"bestpeer/internal/core"
	"bestpeer/internal/transport"
)

// get fetches a mux route and returns the status plus the raw body.
func get(t *testing.T, srv *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// getJSON fetches a route, requires the status, and decodes the body.
func getJSON(t *testing.T, srv *httptest.Server, path string, wantStatus int, v any) {
	t.Helper()
	status, body := get(t, srv, path)
	if status != wantStatus {
		t.Fatalf("GET %s = %d, want %d: %s", path, status, wantStatus, body)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: %v\n%s", path, err, body)
		}
	}
}

func TestServeRoutes(t *testing.T) {
	nw := transport.NewInProc()
	nodes, admins := fleet(t, nw, 2, 0)
	nodes[0].SetPeers([]core.Peer{{Addr: nodes[1].Addr()}})
	nodes[1].SetPeers([]core.Peer{{Addr: nodes[0].Addr()}})
	res, err := nodes[0].Query(&agent.KeywordAgent{Query: "music"}, core.QueryOptions{
		Timeout: time.Second, WaitAnswers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(newMux(NewCollector(admins...)))
	defer srv.Close()

	var snap FleetSnapshot
	getJSON(t, srv, "/fleet", http.StatusOK, &snap)
	if len(snap.Nodes) != 2 {
		t.Fatalf("/fleet nodes = %d", len(snap.Nodes))
	}
	var topo map[string][]string
	getJSON(t, srv, "/fleet/topology", http.StatusOK, &topo)
	if len(topo) != 2 {
		t.Fatalf("/fleet/topology = %v", topo)
	}
	var rounds []Round
	getJSON(t, srv, "/fleet/convergence", http.StatusOK, &rounds)
	if len(rounds) != 1 {
		t.Fatalf("/fleet/convergence = %+v", rounds)
	}

	// Known trace returns the assembly; unknown returns a 404 JSON
	// error; empty id is a 400.
	var ft FleetTrace
	getJSON(t, srv, "/fleet/trace/"+res.ID.String(), http.StatusOK, &ft)
	if ft.Base != nodes[0].Addr() || len(ft.Spans) == 0 {
		t.Fatalf("trace = %+v", ft)
	}
	var jerr map[string]string
	getJSON(t, srv, "/fleet/trace/deadbeef", http.StatusNotFound, &jerr)
	if !strings.Contains(jerr["error"], "deadbeef") {
		t.Fatalf("404 error = %v", jerr)
	}
	getJSON(t, srv, "/fleet/trace/", http.StatusBadRequest, &jerr)
	if jerr["error"] == "" {
		t.Fatalf("400 error = %v", jerr)
	}

	// The scrape above ingested signals, so the timeseries knows both
	// members (keyed by admin address).
	var series map[string]map[string][]TSPoint
	getJSON(t, srv, "/fleet/timeseries", http.StatusOK, &series)
	if len(series) != 2 {
		t.Fatalf("/fleet/timeseries members = %v", series)
	}
	if pts := series[admins[0]][SigUp]; len(pts) == 0 || pts[len(pts)-1].V != 1 {
		t.Fatalf("up series = %+v", pts)
	}
	// Filtered by member and series, with downsampling.
	series = nil
	getJSON(t, srv, "/fleet/timeseries?member="+admins[0]+"&series=up&points=4", http.StatusOK, &series)
	if len(series) != 1 || len(series[admins[0]]) != 1 {
		t.Fatalf("filtered timeseries = %v", series)
	}
	getJSON(t, srv, "/fleet/timeseries?member=nope", http.StatusNotFound, &jerr)
	getJSON(t, srv, "/fleet/timeseries?points=bogus", http.StatusBadRequest, &jerr)

	var hv HealthView
	getJSON(t, srv, "/fleet/health", http.StatusOK, &hv)
	if len(hv.Members) != 2 || len(hv.Rules) == 0 {
		t.Fatalf("/fleet/health = %+v", hv)
	}
	if hv.Members[admins[0]].Signals[SigUp] != 1 {
		t.Fatalf("member signals = %+v", hv.Members[admins[0]])
	}
	if len(hv.Active) != 0 {
		t.Fatalf("healthy fleet has active alerts: %+v", hv.Active)
	}

	var alerts alertsPage
	getJSON(t, srv, "/fleet/alerts", http.StatusOK, &alerts)
	if len(alerts.Active) != 0 || alerts.Events.Total != 0 {
		t.Fatalf("/fleet/alerts = %+v", alerts)
	}
	getJSON(t, srv, "/fleet/alerts?since=bogus", http.StatusBadRequest, &jerr)
	getJSON(t, srv, "/fleet/alerts?max=bogus", http.StatusBadRequest, &jerr)

	status, body := get(t, srv, "/fleet/dashboard")
	if status != http.StatusOK {
		t.Fatalf("/fleet/dashboard = %d", status)
	}
	text := string(body)
	for _, want := range []string{"fleet health", admins[0], "up", "none firing", "rules", "member-down"} {
		if !strings.Contains(text, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, text)
		}
	}
}

func TestServeClosedCollector(t *testing.T) {
	nw := transport.NewInProc()
	nodes, admins := fleet(t, nw, 1, 0)
	srv := httptest.NewServer(newMux(NewCollector(admins...)))
	defer srv.Close()

	// One good scrape, then the member goes away entirely.
	var snap FleetSnapshot
	getJSON(t, srv, "/fleet", http.StatusOK, &snap)
	if snap.Nodes[0].Err != "" {
		t.Fatalf("live member errored: %+v", snap.Nodes[0])
	}
	nodes[0].Close()

	// Every endpoint still answers 200: the last good view survives
	// with the scrape error surfaced, and health reports the member
	// down with the member-down alert firing.
	getJSON(t, srv, "/fleet", http.StatusOK, &snap)
	if snap.Nodes[0].Err == "" {
		t.Fatalf("dead member has no error: %+v", snap.Nodes[0])
	}
	if len(snap.Nodes[0].Peers) == 0 && snap.Nodes[0].Node == "" {
		t.Fatalf("last good view lost: %+v", snap.Nodes[0])
	}
	var hv HealthView
	getJSON(t, srv, "/fleet/health", http.StatusOK, &hv)
	if hv.Members[admins[0]].Signals[SigUp] != 0 {
		t.Fatalf("dead member up signal = %+v", hv.Members[admins[0]])
	}
	var alerts alertsPage
	getJSON(t, srv, "/fleet/alerts", http.StatusOK, &alerts)
	if len(alerts.Active) != 1 || alerts.Active[0].Rule != "member-down" {
		t.Fatalf("alerts = %+v", alerts.Active)
	}
	status, body := get(t, srv, "/fleet/dashboard")
	if status != http.StatusOK || !strings.Contains(string(body), "member-down") {
		t.Fatalf("dashboard = %d:\n%s", status, body)
	}
}
