package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"slices"
	"sync"
	"time"
)

// Readiness is the snapshot behind /readyz: enough externally-visible
// state for a supervisor (the testnet harness, an orchestrator probe)
// to distinguish "process up" (/healthz) from "node participating".
type Readiness struct {
	// StoreSize is the number of tuples currently in the local space.
	StoreSize int `json:"store_size"`
	// Peers is the number of neighbors currently up.
	Peers int `json:"peers"`
	// Announced and Suppressed are the cumulative refresh counters
	// (tuples re-sent in full vs. advertised by digest).
	Announced  int64 `json:"announced"`
	Suppressed int64 `json:"suppressed"`
}

// readyzPayload is the /readyz response body: the Readiness snapshot
// plus per-scrape deltas of the refresh counters, so pollers see the
// last-epoch announce/suppress activity without keeping state.
type readyzPayload struct {
	Ready bool `json:"ready"`
	Readiness
	AnnouncedDelta  int64 `json:"announced_delta"`
	SuppressedDelta int64 `json:"suppressed_delta"`
}

// Extras are the optional endpoints Handler can serve beyond the
// metrics surface. The zero value serves none of them.
type Extras struct {
	// Flights, when they hold a recorder, are served at /debug/flight
	// as concatenated JSONL, oldest events first per recorder — the
	// same schema the JSONL sink writes, so tota-trace ingests scrapes.
	// Nil entries are skipped.
	Flights []*FlightRecorder
	// Ready, when set, serves /readyz: HTTP 200 with a JSON body when
	// the node has at least one peer up, 503 (same body) otherwise.
	// Distinct from the liveness-only /healthz: a freshly restarted
	// node is healthy immediately but not ready until discovery
	// completes, and not converged until its store matches the fleet.
	Ready func() Readiness
	// Store, when set, serves /store.json: an NDJSON dump of the local
	// tuple space (one tuple.MarshalTupleJSON document per line), the
	// external-verification surface a harness compares against its
	// oracle without any in-process inspection.
	Store func(io.Writer) error
}

// Handler returns the observability endpoint mux:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  JSON snapshot (histograms include quantiles)
//	/healthz       liveness probe ("ok")
//	/debug/pprof/  the standard net/http/pprof handlers
//
// plus whichever of /debug/flight, /readyz and /store.json x asks for
// (see Extras).
func Handler(r *Registry, x Extras) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if x.Ready != nil {
		// The delta tracker makes consecutive scrapes report per-epoch
		// refresh activity; it is per-handler state, so two pollers
		// sharing one endpoint see interleaved (still non-negative)
		// deltas.
		var mu sync.Mutex
		var lastAnn, lastSup int64
		ready := x.Ready
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
			snap := ready()
			mu.Lock()
			body := readyzPayload{
				Ready:           snap.Peers > 0,
				Readiness:       snap,
				AnnouncedDelta:  snap.Announced - lastAnn,
				SuppressedDelta: snap.Suppressed - lastSup,
			}
			lastAnn, lastSup = snap.Announced, snap.Suppressed
			mu.Unlock()
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			if !body.Ready {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
			_ = json.NewEncoder(w).Encode(body)
		})
	}
	if x.Store != nil {
		store := x.Store
		mux.HandleFunc("/store.json", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = store(w)
		})
	}
	flights := slices.DeleteFunc(slices.Clone(x.Flights), func(f *FlightRecorder) bool { return f == nil })
	if len(flights) > 0 {
		mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			for _, f := range flights {
				_ = f.WriteJSONL(w)
			}
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running observability endpoint.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Serve binds addr (e.g. ":8080" or "127.0.0.1:0") and serves
// Handler(r, x) in a background goroutine. Close to stop.
func Serve(addr string, r *Registry, x Extras) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           Handler(r, x),
		ReadHeaderTimeout: 5 * time.Second,
		// WriteTimeout must clear the longest legitimate response:
		// /debug/pprof/profile streams for 30s by default, so give it
		// headroom rather than truncating profiles mid-stream. A stalled
		// scraper still cannot pin a connection past these bounds.
		WriteTimeout: 90 * time.Second,
		IdleTimeout:  120 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	return &Server{srv: srv, ln: ln}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }
