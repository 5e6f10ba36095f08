package observatory

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"

	"bestpeer/internal/obs"
)

// newMux builds the observatory HTTP handler:
//
//	/fleet              scrape every member and return the fleet snapshot
//	/fleet/topology     the overlay graph from the latest scrape
//	/fleet/convergence  the convergence timeline folded from fleet events
//	/fleet/trace/<id>   cross-node trace assembly for one query
//	/fleet/timeseries   per-member derived signal history (?member=, ?series=, ?points=)
//	/fleet/health       rule set, latest signals and firing alerts per member
//	/fleet/alerts       firing alerts plus the alert event journal (?since=, ?max=)
//	/fleet/dashboard    the same, rendered as plain text with sparklines
//
// Every endpoint scrapes on demand, so a snapshot is never staler than
// its request.
func newMux(c *Collector) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Scrape())
	})
	mux.HandleFunc("/fleet/topology", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Scrape().topology())
	})
	mux.HandleFunc("/fleet/convergence", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, c.Scrape().rounds())
	})
	mux.HandleFunc("/fleet/trace/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/fleet/trace/")
		if id == "" {
			writeError(w, http.StatusBadRequest, "missing query id")
			return
		}
		c.Scrape() // pick up the latest journal entries first
		ft := c.assembleTrace(id)
		if ft.Base == "" && len(ft.Spans) == 0 && len(ft.Events) == 0 {
			writeError(w, http.StatusNotFound, "unknown query id "+id)
			return
		}
		writeJSON(w, http.StatusOK, ft)
	})
	mux.HandleFunc("/fleet/timeseries", func(w http.ResponseWriter, r *http.Request) {
		c.Scrape()
		ts := c.health.Series()
		member := r.URL.Query().Get("member")
		series := r.URL.Query().Get("series")
		points := 0
		if raw := r.URL.Query().Get("points"); raw != "" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 1 {
				writeError(w, http.StatusBadRequest, "bad points parameter")
				return
			}
			points = n
		}
		if member != "" && !ts.has(member) {
			writeError(w, http.StatusNotFound, "unknown member "+member)
			return
		}
		out := make(map[string]map[string][]TSPoint)
		for m, byName := range ts.all() {
			if member != "" && m != member {
				continue
			}
			filtered := make(map[string][]TSPoint)
			for name, pts := range byName {
				if series != "" && name != series {
					continue
				}
				if points > 0 {
					pts = downsample(pts, points)
				}
				filtered[name] = pts
			}
			out[m] = filtered
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("/fleet/health", func(w http.ResponseWriter, r *http.Request) {
		c.Scrape()
		writeJSON(w, http.StatusOK, c.health.view())
	})
	mux.HandleFunc("/fleet/alerts", func(w http.ResponseWriter, r *http.Request) {
		c.Scrape()
		q := r.URL.Query()
		since, max := uint64(0), 0
		if raw := q.Get("since"); raw != "" {
			v, err := strconv.ParseUint(raw, 10, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad since cursor")
				return
			}
			since = v
		}
		if raw := q.Get("max"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil {
				writeError(w, http.StatusBadRequest, "bad max parameter")
				return
			}
			max = v
		}
		writeJSON(w, http.StatusOK, alertsPage{
			Active: c.health.activeAlerts(),
			Events: c.health.Journal().Page(since, max),
		})
	})
	mux.HandleFunc("/fleet/dashboard", func(w http.ResponseWriter, r *http.Request) {
		c.Scrape()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = fmt.Fprint(w, renderDashboard(c)) // client went away mid-response; nothing to do
	})
	return mux
}

// alertsPage is the /fleet/alerts payload: the firing set plus one
// page of the alert event journal.
type alertsPage struct {
	Active []Alert        `json:"active"`
	Events obs.EventsPage `json:"events"`
}

// writeJSON writes the status code, then the payload — in that order,
// because headers are immutable once the encoder writes its first
// byte.
func writeJSON(w http.ResponseWriter, status int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(payload) // client went away mid-response; nothing to do
}

// writeError writes a JSON error payload with the given status.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// Server is a running observatory HTTP endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// StartServer binds the observatory mux and serves it in the background.
// Like the node admin endpoint, an empty addr means "127.0.0.1:0" and a
// bare ":port" binds loopback — the observatory aggregates fleet
// internals and is unauthenticated.
func StartServer(addr string, c *Collector) (*Server, error) {
	switch {
	case addr == "":
		addr = "127.0.0.1:0"
	case strings.HasPrefix(addr, ":"):
		addr = "127.0.0.1" + addr
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("observatory: listen: %w", err)
	}
	srv := &http.Server{Handler: newMux(c)}
	go func() {
		defer func() { recover() }() // a crashed observatory must not take the process down
		_ = srv.Serve(ln)            // returns ErrServerClosed on Close; nothing to report
	}()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound address of the observatory endpoint.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the observatory endpoint.
func (s *Server) Close() error { return s.srv.Close() }
