package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Health is the /healthz payload: who leads, how stable the reign is, and
// whether the cluster is quiescent, in one glance.
type Health struct {
	// Leader is the cluster-wide agreed leader id, -1 while disputed.
	Leader int `json:"leader"`
	// Agreed reports whether every watched process outputs the same leader.
	Agreed bool `json:"agreed"`
	// Epoch counts completed cluster-wide elections — a monotone reign
	// counter (it is not the algorithm's internal accusation count, which
	// lives on the node loops and is not safely readable from outside).
	Epoch uint64 `json:"epoch"`
	// StableForSeconds is how long the current agreement has held
	// (absent while disputed).
	StableForSeconds float64 `json:"stable_for_seconds,omitempty"`
	// ActiveLinks is the directed links active within the quiescence
	// window; n-1 once the paper's steady state is reached.
	ActiveLinks int `json:"active_links"`
	// NonLeaderSends totals messages sent by non-leaders; flat in steady
	// state.
	NonLeaderSends uint64 `json:"non_leader_sends"`
	// Decides counts consensus decisions observed.
	Decides uint64 `json:"decides"`
}

// Health assembles the current health view.
func (c *Collector) Health() Health {
	leader, agreed := c.Leader()
	h := Health{
		Leader:         -1,
		Agreed:         agreed,
		Epoch:          c.Elections(),
		ActiveLinks:    c.ActiveLinks(),
		NonLeaderSends: c.NonLeaderSends(),
		Decides:        c.Decides(),
	}
	if agreed {
		h.Leader = int(leader)
		if since, ok := c.TimeSinceLastElection(); ok {
			h.StableForSeconds = since.Seconds()
		}
	}
	return h
}

// Server is a running telemetry endpoint. Close releases the listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP endpoint on addr (e.g. ":8080" or "127.0.0.1:0")
// exposing:
//
//	/metrics       Prometheus text exposition of the collector
//	/healthz       JSON leader/epoch/quiescence summary (503 while no
//	               cluster-wide leader agreement holds)
//	/trace         JSON span-dump snapshot, written by trace on every GET
//	               (the flight recorder's WriteJSON); nil registers no route
//	/debug/pprof/  the standard net/http/pprof surface
//
// The server runs until Close. Pass the returned Server's Addr to curl
// when addr used port 0.
func Serve(addr string, c *Collector, trace func(io.Writer) error) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	if trace != nil {
		mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := trace(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := c.Health()
		w.Header().Set("Content-Type", "application/json")
		if !h.Agreed {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(h)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }
