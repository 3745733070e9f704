// Package node assembles one real TOTA node from the tota-node flag
// values: the engine over UDP, its refresh ticker, the client gateway,
// telemetry and the trace sinks. It owns every goroutine it starts and
// tears the node down inputs-first (DESIGN.md §7).
package node

import (
	"context"
	"errors"
	"flag"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"

	"tota/internal/core"
	"tota/internal/gateway"
	"tota/internal/obs"
	"tota/internal/transport/udp"
	"tota/internal/tuple"
)

// Config holds one node's settings, the tota-node flags; Bind declares
// each with its name, default and help. A zero Refresh runs neither
// anti-entropy nor lease sweeps, so leased tuples never expire.
type Config struct {
	ID, Listen, Peers, ObsAddr, TraceOut, GatewayAddr string
	FlightSize, GatewayMaxClients                     int
	Sample                                            float64
	Refresh                                           time.Duration
}

// Bind declares every Config field as a flag on fs.
func (c *Config) Bind(fs *flag.FlagSet) {
	fs.StringVar(&c.ID, "id", "", "node id (required, unique)")
	fs.StringVar(&c.Listen, "listen", "127.0.0.1:0", "UDP listen address")
	fs.StringVar(&c.Peers, "peers", "", "comma-separated candidate peer addresses")
	fs.StringVar(&c.ObsAddr, "obs.addr", "", "serve /metrics, /metrics.json, /healthz, /readyz, /store.json and pprof on this address")
	fs.StringVar(&c.TraceOut, "trace.jsonl", "", "append engine trace events as JSON lines to this file ('-' for stderr)")
	fs.IntVar(&c.FlightSize, "trace.flight", 0, "keep the last N trace events in an in-memory flight recorder (served at /debug/flight, dumped to stderr on crash or SIGTERM)")
	fs.Float64Var(&c.Sample, "trace.sample", 0, "fraction of injected tuples carrying a wire-level trace context (0 = off; received contexts always propagate)")
	fs.DurationVar(&c.Refresh, "refresh", time.Second, "anti-entropy refresh period: each epoch re-announces changed tuples, digests the rest, ages out unheard support (an unsupported copy is withdrawn after a 2-epoch grace) and sweeps expired leases (0 stops both refresh and lease sweeps: lossy links then never heal and leased tuples never expire)")
	fs.StringVar(&c.GatewayAddr, "gateway.addr", "", "serve the client gateway RPC (length-prefixed JSON over TCP: inject/read/subscribe with replay) on this address")
	fs.IntVar(&c.GatewayMaxClients, "gateway.maxclients", gateway.DefaultMaxClients, "maximum concurrent gateway client connections")
}

// Env is what Run takes from its process. Stderr (nil: os.Stderr)
// receives the "-" trace stream, crash and shutdown dumps and, when
// Logger is nil, text logs.
type Env struct {
	Stderr io.Writer
	Logger *slog.Logger
}

// Signal, as the cause that cancels Run's context, marks a supervised
// stop: the teardown then dumps the flight ring to Env.Stderr.
type Signal struct{ os.Signal }

func (s Signal) Error() string { return s.String() }

// Node is a running node. The addresses are empty for surfaces not
// configured.
type Node struct {
	Core                       *core.Node
	Addr, GatewayAddr, ObsAddr string

	stderr io.Writer
	tr     *udp.Transport
	gw     *gateway.Gateway
	srv    *obs.Server
	file   *os.File
	sink   *obs.JSONLSink
	flight *obs.FlightRecorder
	dump   func() // deferred where engine work runs: prints the flight ring on a panic
	ticked chan struct{}
	done   chan struct{}
}

// Run assembles a node from cfg and starts it. The node runs until ctx
// is done; Wait returns once it is torn down.
func Run(ctx context.Context, cfg Config, env Env) (*Node, error) {
	if env.Stderr == nil {
		env.Stderr = os.Stderr
	}
	if env.Logger == nil {
		env.Logger = slog.New(slog.NewTextHandler(env.Stderr, nil))
	}
	ucfg := udp.Config{NodeID: tuple.NodeID(cfg.ID), ListenAddr: cfg.Listen, Logger: env.Logger}
	if cfg.Peers != "" {
		ucfg.Peers = strings.Split(cfg.Peers, ",")
	}
	tr, err := udp.New(ucfg)
	if err != nil {
		return nil, err
	}
	n := &Node{stderr: env.Stderr, tr: tr, dump: func() {}, done: make(chan struct{})}
	if err := n.start(ctx, cfg, env.Logger); err != nil {
		n.stop(false)
		return nil, err
	}
	go func() {
		<-ctx.Done()
		var sig Signal
		n.stop(errors.As(context.Cause(ctx), &sig))
		close(n.done)
	}()
	return n, nil
}

// Wait blocks until the node is torn down.
func (n *Node) Wait() { <-n.done }

func (n *Node) start(ctx context.Context, cfg Config, logger *slog.Logger) error {
	// The registry reads component-owned counters at scrape time, so
	// the node pays nothing on the packet path; the trace pipeline
	// stamps events with wall-clock seconds since start.
	reg := obs.NewRegistry()
	start := time.Now()
	clock := func() float64 { return time.Since(start).Seconds() }
	tracers := []core.Tracer{obs.NewLatencies(reg, clock, obs.ExpBuckets(0.001, 2, 16)).Tracer()}
	if cfg.TraceOut != "" {
		w := n.stderr
		if cfg.TraceOut != "-" {
			f, err := os.Create(cfg.TraceOut)
			if err != nil {
				return err
			}
			n.file, w = f, f
		}
		n.sink = obs.NewJSONLSink(w, reg, clock, 0)
		tracers = append(tracers, n.sink.Tracer())
	}
	if cfg.FlightSize > 0 {
		n.flight = obs.NewFlightRecorder(clock, cfg.FlightSize)
		n.dump = n.flight.DumpOnCrash(n.stderr)
		tracers = append(tracers, n.flight.Tracer())
	}
	n.Core = core.New(n.tr, core.WithLogger(logger),
		core.WithTracer(obs.MultiTracer(tracers...)), core.WithTraceSampling(cfg.Sample))
	n.tr.SetHandler(crashDump{n.Core, n.dump})
	n.tr.Start()
	n.Addr = n.tr.Addr()

	if cfg.GatewayAddr != "" {
		gw, err := gateway.Serve(n.Core, cfg.GatewayAddr, gateway.Config{MaxClients: cfg.GatewayMaxClients, Logger: logger})
		if err != nil {
			return err
		}
		n.gw, n.GatewayAddr = gw, gw.Addr()
		obs.RegisterStats(reg, gw.Stats)
	}
	obs.RegisterStats(reg, n.Core.Stats)
	obs.RegisterStats(reg, n.tr.Stats)
	reg.GaugeFunc("tota_node_store_size", "Tuples currently in the local space.",
		func() float64 { return float64(n.Core.StoreSize()) })
	reg.GaugeFunc("tota_udp_neighbors", "Neighbors currently up.",
		func() float64 { return float64(len(n.tr.Neighbors())) })
	obs.RegisterRuntime(reg)
	obs.RegisterMemMetrics(reg)
	if cfg.ObsAddr != "" {
		srv, err := obs.Serve(cfg.ObsAddr, reg, obs.Extras{Flights: []*obs.FlightRecorder{n.flight}, Ready: n.ready, Store: n.writeStore})
		if err != nil {
			return err
		}
		n.srv, n.ObsAddr = srv, srv.Addr()
	}

	// The refresh ticker is the real-deployment stand-in for the
	// emulator's per-tick RefreshAll: without it a UDP node never runs
	// anti-entropy, so state lost to the radio stays lost and restarted
	// peers never catch up by digest→pull.
	if cfg.Refresh > 0 {
		n.ticked = make(chan struct{})
		go func() {
			defer close(n.ticked)
			defer n.dump()
			ticker := time.NewTicker(cfg.Refresh)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					n.Core.Refresh()
					n.Core.SweepExpired(clock())
				}
			}
		}()
	}
	return nil
}

// stop tears the node down in one order: first the inputs that drive
// the engine (ticker, gateway, transport), so no trace event can fire
// after, then the sinks those events feed and the telemetry server.
func (n *Node) stop(dumpFlight bool) {
	if n.ticked != nil {
		<-n.ticked
	}
	if n.gw != nil {
		_ = n.gw.Close()
	}
	_ = n.tr.Close()
	if n.sink != nil {
		_ = n.sink.Close()
	}
	if n.file != nil {
		_ = n.file.Close()
	}
	if dumpFlight && n.flight != nil {
		_ = n.flight.WriteJSONL(n.stderr)
	}
	if n.srv != nil {
		_ = n.srv.Close()
	}
}

func (n *Node) ready() obs.Readiness {
	st := n.Core.Stats()
	return obs.Readiness{StoreSize: n.Core.StoreSize(), Peers: len(n.tr.Neighbors()),
		Announced: st.RefreshAnnounced, Suppressed: st.RefreshSuppressed}
}

func (n *Node) writeStore(w io.Writer) error {
	for _, t := range n.Core.Read(tuple.MatchAll()) {
		data, err := tuple.MarshalTupleJSON(t)
		if err != nil {
			continue
		}
		if _, err := w.Write(append(data, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// crashDump runs the engine's transport handlers under the flight
// ring's crash dump.
type crashDump struct {
	*core.Node
	dump func()
}

func (h crashDump) HandlePacket(from tuple.NodeID, data []byte) {
	defer h.dump()
	h.Node.HandlePacket(from, data)
}

func (h crashDump) HandleNeighbor(peer tuple.NodeID, added bool) {
	defer h.dump()
	h.Node.HandleNeighbor(peer, added)
}
