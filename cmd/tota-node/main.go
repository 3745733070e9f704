// Command tota-node runs one real TOTA middleware node over UDP and
// exposes the TOTA API as an interactive shell — the hand-held
// prototype of §4.2, minus the iPAQ.
//
// Start a few nodes in separate terminals and point them at each other:
//
//	tota-node -id a -listen 127.0.0.1:7001
//	tota-node -id b -listen 127.0.0.1:7002 -peers 127.0.0.1:7001
//
// Commands: gradient NAME [SCOPE], flood NAME TEXT, send NAME TEXT,
// read [KIND [NAME]], delete KIND NAME, retract ID, neighbors, stats,
// watch KIND, help, quit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tota/internal/core"
	"tota/internal/gateway"
	"tota/internal/obs"
	"tota/internal/pattern"
	"tota/internal/transport/udp"
	"tota/internal/tuple"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tota-node:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("tota-node", flag.ContinueOnError)
	id := fs.String("id", "", "node id (required, unique)")
	listen := fs.String("listen", "127.0.0.1:0", "UDP listen address")
	peers := fs.String("peers", "", "comma-separated candidate peer addresses")
	obsAddr := fs.String("obs.addr", "", "serve /metrics, /metrics.json, /healthz, /readyz, /store.json and pprof on this address")
	traceOut := fs.String("trace.jsonl", "", "append engine trace events as JSON lines to this file ('-' for stderr)")
	flightSize := fs.Int("trace.flight", 0, "keep the last N trace events in an in-memory flight recorder (served at /debug/flight, dumped to stderr on crash or SIGTERM)")
	sample := fs.Float64("trace.sample", 0, "fraction of injected tuples carrying a wire-level trace context (0 = off; received contexts always propagate)")
	refresh := fs.Duration("refresh", time.Second, "anti-entropy refresh period: each epoch re-announces changed tuples, digests the rest, ages out unheard support (an unsupported copy is withdrawn after a 2-epoch grace) and sweeps expired leases (0 disables; lossy links then never heal)")
	gwAddr := fs.String("gateway.addr", "", "serve the client gateway RPC (length-prefixed JSON over TCP: inject/read/subscribe with replay) on this address")
	gwMaxClients := fs.Int("gateway.maxclients", gateway.DefaultMaxClients, "maximum concurrent gateway client connections")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("-id is required")
	}
	// Register the signal handler before anything is listening, so a
	// supervisor that starts us and immediately sends SIGTERM still
	// gets a graceful exit rather than the default kill.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	cfg := udp.Config{NodeID: tuple.NodeID(*id), ListenAddr: *listen, Logger: logger}
	if *peers != "" {
		cfg.Peers = strings.Split(*peers, ",")
	}
	tr, err := udp.New(cfg)
	if err != nil {
		return err
	}
	defer func() { _ = tr.Close() }()

	// Telemetry: the registry reads component-owned counters at scrape
	// time, so the node pays nothing on the packet path; the trace
	// pipeline stamps events with wall-clock seconds since start.
	reg := obs.NewRegistry()
	start := time.Now()
	clock := func() float64 { return time.Since(start).Seconds() }
	lat := obs.NewLatencies(reg, clock, obs.ExpBuckets(0.001, 2, 16))
	var sink *obs.JSONLSink
	if *traceOut != "" {
		w := io.Writer(os.Stderr)
		if *traceOut != "-" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			defer func() { _ = f.Close() }()
			w = f
		}
		sink = obs.NewJSONLSink(w, reg, clock, 0)
		defer func() { _ = sink.Close() }()
	}
	var sinkTracer core.Tracer
	if sink != nil {
		sinkTracer = sink.Tracer()
	}
	var flight *obs.FlightRecorder
	var flightTracer core.Tracer
	if *flightSize > 0 {
		// The flight ring is the black box a live node keeps regardless
		// of export: scrape it at /debug/flight, and dump it on a crash.
		flight = obs.NewFlightRecorder(clock, *flightSize)
		flightTracer = flight.Tracer()
		defer flight.DumpOnCrash(os.Stderr)()
	}

	node := core.New(tr,
		core.WithLogger(logger),
		core.WithTracer(obs.MultiTracer(lat.Tracer(), sinkTracer, flightTracer)),
		core.WithTraceSampling(*sample),
	)
	tr.SetHandler(node)
	tr.Start()
	fmt.Fprintf(out, "node %s listening on %s\n", *id, tr.Addr())

	// Client gateway: the serving surface for lightweight non-peer
	// clients (inject/read/subscribe over TCP with seq-based replay).
	if *gwAddr != "" {
		gw, err := gateway.Serve(node, *gwAddr, gateway.Config{
			MaxClients: *gwMaxClients,
			Logger:     logger,
		})
		if err != nil {
			return err
		}
		defer func() { _ = gw.Close() }()
		obs.RegisterStats(reg, gw.Stats)
		fmt.Fprintf(out, "gateway on %s\n", gw.Addr())
	}

	obs.RegisterStats(reg, node.Stats)
	obs.RegisterStats(reg, tr.Stats)
	reg.GaugeFunc("tota_node_store_size", "Tuples currently in the local space.",
		func() float64 { return float64(node.StoreSize()) })
	reg.GaugeFunc("tota_udp_neighbors", "Neighbors currently up.",
		func() float64 { return float64(len(tr.Neighbors())) })
	obs.RegisterRuntime(reg)
	obs.RegisterMemMetrics(reg)
	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, reg, obs.Extras{
			Flights: []*obs.FlightRecorder{flight},
			Ready: func() obs.Readiness {
				st := node.Stats()
				return obs.Readiness{
					StoreSize:  node.StoreSize(),
					Peers:      len(tr.Neighbors()),
					Announced:  st.RefreshAnnounced,
					Suppressed: st.RefreshSuppressed,
				}
			},
			Store: func(w io.Writer) error {
				for _, t := range node.Read(tuple.MatchAll()) {
					data, err := tuple.MarshalTupleJSON(t)
					if err != nil {
						continue
					}
					if _, err := w.Write(append(data, '\n')); err != nil {
						return err
					}
				}
				return nil
			},
		})
		if err != nil {
			return err
		}
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(out, "telemetry on http://%s/metrics\n", srv.Addr())
	}

	// The refresh ticker is the real-deployment stand-in for the
	// emulator's per-tick RefreshAll: without it a UDP node never runs
	// anti-entropy, so state lost to the radio stays lost and restarted
	// peers never catch up by digest→pull.
	if *refresh > 0 {
		stopRefresh := make(chan struct{})
		defer close(stopRefresh)
		go func() {
			ticker := time.NewTicker(*refresh)
			defer ticker.Stop()
			for {
				select {
				case <-stopRefresh:
					return
				case <-ticker.C:
					node.Refresh()
					node.SweepExpired(clock())
				}
			}
		}()
	}

	// Run the shell concurrently so SIGTERM/SIGINT can shut the node
	// down cleanly mid-read: the deferred closes above flush the trace
	// sink, stop telemetry and close the socket, and the flight ring is
	// dumped here — the black box survives a supervised stop, not just
	// a crash.
	shellDone := make(chan error, 1)
	go func() { shellDone <- shell(node, in, out) }()
	select {
	case err := <-shellDone:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "tota-node: %v: shutting down\n", sig)
		if flight != nil {
			_ = flight.WriteJSONL(os.Stderr)
		}
		return nil
	}
}

func shell(node *core.Node, in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	fmt.Fprint(out, "> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			fmt.Fprint(out, "> ")
			continue
		}
		if fields[0] == "quit" || fields[0] == "exit" {
			return nil
		}
		execute(node, out, fields)
		fmt.Fprint(out, "> ")
	}
	return sc.Err()
}

func execute(node *core.Node, out io.Writer, fields []string) {
	switch cmd, rest := fields[0], fields[1:]; cmd {
	case "help":
		fmt.Fprintln(out, `commands:
  gradient NAME [SCOPE]   inject a (scoped) gradient field
  flood NAME TEXT...      flood a message tuple
  send NAME TEXT...       send a message downhill the NAME gradient
  read [KIND [NAME]]      list local tuples
  readj [KIND [NAME]]     list local tuples as JSON
  delete KIND NAME        delete matching local tuples
  retract NODE#SEQ        tear down a structure by tuple id
  watch KIND [NAME]       print events for matching tuples as they happen
  neighbors               list current neighbors
  stats                   middleware counters
  quit`)
	case "gradient":
		if len(rest) < 1 {
			fmt.Fprintln(out, "usage: gradient NAME [SCOPE]")
			return
		}
		g := pattern.NewGradient(rest[0])
		if len(rest) > 1 {
			if scope, err := strconv.ParseFloat(rest[1], 64); err == nil {
				g = g.Bounded(scope)
			}
		}
		id, err := node.Inject(g)
		reportInject(out, id, err)
	case "flood":
		if len(rest) < 2 {
			fmt.Fprintln(out, "usage: flood NAME TEXT...")
			return
		}
		f := pattern.NewFlood(rest[0], tuple.S("text", strings.Join(rest[1:], " ")))
		id, err := node.Inject(f)
		reportInject(out, id, err)
	case "send":
		if len(rest) < 2 {
			fmt.Fprintln(out, "usage: send NAME TEXT...")
			return
		}
		d := pattern.NewDownhill(rest[0], tuple.S("text", strings.Join(rest[1:], " ")))
		id, err := node.Inject(d)
		reportInject(out, id, err)
	case "read", "readj":
		tpl := tuple.MatchAll()
		if len(rest) >= 1 {
			tpl = tuple.Match(rest[0])
		}
		if len(rest) >= 2 {
			tpl = pattern.ByName(rest[0], rest[1])
		}
		for _, t := range node.Read(tpl) {
			if cmd == "readj" {
				if data, err := tuple.MarshalTupleJSON(t); err == nil {
					fmt.Fprintf(out, "  %s\n", data)
				}
				continue
			}
			printTuple(out, t)
		}
	case "delete":
		if len(rest) != 2 {
			fmt.Fprintln(out, "usage: delete KIND NAME")
			return
		}
		removed := node.Delete(pattern.ByName(rest[0], rest[1]))
		fmt.Fprintf(out, "deleted %d tuples\n", len(removed))
	case "retract":
		if len(rest) != 1 {
			fmt.Fprintln(out, "usage: retract NODE#SEQ")
			return
		}
		id, err := tuple.ParseID(rest[0])
		if err != nil {
			fmt.Fprintln(out, "bad id:", err)
			return
		}
		node.Retract(id)
		fmt.Fprintln(out, "retracted", id)
	case "watch":
		tpl := tuple.MatchAll()
		switch len(rest) {
		case 1:
			tpl = tuple.Match(rest[0])
		case 2:
			tpl = pattern.ByName(rest[0], rest[1])
		}
		id := node.Subscribe(tpl, func(ev core.Event) {
			fmt.Fprintf(out, "\n[%s] ", ev.Type)
			printTuple(out, ev.Tuple)
		})
		fmt.Fprintf(out, "watching (subscription %d; events print asynchronously)\n", id)
	case "neighbors":
		for _, nb := range node.Neighbors() {
			fmt.Fprintln(out, " ", nb)
		}
	case "stats":
		fmt.Fprintf(out, "%+v\n", node.Stats())
	default:
		fmt.Fprintf(out, "unknown command %q (try help)\n", cmd)
	}
}

func reportInject(out io.Writer, id tuple.ID, err error) {
	if err != nil {
		fmt.Fprintln(out, "inject failed:", err)
		return
	}
	fmt.Fprintln(out, "injected", id)
}

func printTuple(out io.Writer, t tuple.Tuple) {
	extra := ""
	if m, ok := t.(tuple.Maintained); ok {
		val := m.Value()
		if !math.IsInf(val, 0) {
			extra = fmt.Sprintf(" val=%g", val)
		}
	}
	fmt.Fprintf(out, "  [%s %s]%s %v\n", t.Kind(), t.ID(), extra, t.Content())
}
