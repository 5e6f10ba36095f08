package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"bestpeer/internal/wire"
)

// AdminConfig wires a node's observability surfaces into an admin mux.
// Health and Peers are callbacks so the obs package stays free of node
// internals; their return values are rendered as JSON.
type AdminConfig struct {
	Registry *Registry
	Tracer   *Tracer
	Journal  *Journal   // event journal behind /events; nil serves 404
	Health   func() any // payload for /healthz; nil serves {"status":"ok"}
	Peers    func() any // payload for /peers; nil serves 404
	Cache    func() any // payload for /cache (qroute stats); nil serves 404
}

// newAdminMux builds the admin HTTP handler:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  JSON snapshot of every metric family
//	/healthz       liveness payload
//	/peers         current peer view
//	/cache         qroute answer-cache and routing-index stats
//	/events        event journal page (?since=<cursor>&max=<n>)
//	/queries/      recent query traces (ids); /queries/<id> is one trace
//	/debug/pprof/  the standard runtime profiles
func newAdminMux(cfg AdminConfig) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = cfg.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = cfg.Registry.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		payload := any(map[string]string{"status": "ok"})
		if cfg.Health != nil {
			payload = cfg.Health()
		}
		writeAdminJSON(w, payload)
	})
	mux.HandleFunc("/peers", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Peers == nil {
			http.NotFound(w, r)
			return
		}
		writeAdminJSON(w, cfg.Peers())
	})
	mux.HandleFunc("/cache", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Cache == nil {
			http.NotFound(w, r)
			return
		}
		writeAdminJSON(w, cfg.Cache())
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Journal == nil {
			http.NotFound(w, r)
			return
		}
		var since uint64
		if s := r.URL.Query().Get("since"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad since cursor: %v", err), http.StatusBadRequest)
				return
			}
			since = v
		}
		max := defaultEventsPageSize
		if s := r.URL.Query().Get("max"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v <= 0 {
				http.Error(w, fmt.Sprintf("bad max %q", s), http.StatusBadRequest)
				return
			}
			max = v
		}
		writeAdminJSON(w, cfg.Journal.Page(since, max))
	})
	mux.HandleFunc("/queries/", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Tracer == nil {
			http.NotFound(w, r)
			return
		}
		rest := strings.TrimPrefix(r.URL.Path, "/queries/")
		if rest == "" {
			type summary struct {
				ID    string `json:"id"`
				Spans int    `json:"spans"`
				Hops  int    `json:"max_hop"`
			}
			var out []summary
			for _, t := range cfg.Tracer.Recent(0) {
				out = append(out, summary{ID: t.ID.String(), Spans: len(t.Spans), Hops: t.MaxHop()})
			}
			writeAdminJSON(w, out)
			return
		}
		id, err := wire.ParseMsgID(rest)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad query id: %v", err), http.StatusBadRequest)
			return
		}
		t, ok := cfg.Tracer.Get(id)
		if !ok {
			http.NotFound(w, r)
			return
		}
		writeAdminJSON(w, map[string]any{"trace": t, "tree": t.Tree()})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// defaultEventsPageSize bounds one /events response when the client
// does not say; cursors make follow-up pages cheap.
const defaultEventsPageSize = 512

func writeAdminJSON(w http.ResponseWriter, payload any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(payload)
}

// AdminServer is a running admin HTTP endpoint.
type AdminServer struct {
	ln  net.Listener
	srv *http.Server
}

// StartAdmin binds the admin mux and serves it in the background. For
// safety the endpoint is loopback-only unless an explicit host is
// given: an empty addr means "127.0.0.1:0" and a bare ":port" is
// rewritten to "127.0.0.1:port" — exposing profiles and peer tables to
// the network must be a deliberate choice.
func StartAdmin(addr string, cfg AdminConfig) (*AdminServer, error) {
	switch {
	case addr == "":
		addr = "127.0.0.1:0"
	case strings.HasPrefix(addr, ":"):
		addr = "127.0.0.1" + addr
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen: %w", err)
	}
	srv := &http.Server{Handler: newAdminMux(cfg)}
	go func() {
		defer func() { recover() }() // a crashed admin endpoint must not take the node down
		_ = srv.Serve(ln)            // returns ErrServerClosed on Close; nothing to report
	}()
	return &AdminServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound address of the admin endpoint.
func (a *AdminServer) Addr() string { return a.ln.Addr().String() }

// Close stops the admin endpoint.
func (a *AdminServer) Close() error { return a.srv.Close() }
