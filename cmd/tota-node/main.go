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
// read [KIND [NAME]], readj [KIND [NAME]], delete KIND NAME, retract ID,
// neighbors, stats, watch KIND [NAME], help, quit.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"tota/internal/core"
	"tota/internal/node"
	"tota/internal/pattern"
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
	var cfg node.Config
	cfg.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.ID == "" {
		return fmt.Errorf("-id is required")
	}
	// Register the signal handler before anything is listening, so a
	// supervisor that starts us and immediately sends SIGTERM still
	// gets a graceful exit rather than the default kill.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	ctx, stop := context.WithCancelCause(context.Background())
	defer stop(nil)
	n, err := node.Run(ctx, cfg, node.Env{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "node %s listening on %s\n", cfg.ID, n.Addr)
	if n.GatewayAddr != "" {
		fmt.Fprintf(out, "gateway on %s\n", n.GatewayAddr)
	}
	if n.ObsAddr != "" {
		fmt.Fprintf(out, "telemetry on http://%s/metrics\n", n.ObsAddr)
	}

	// Run the shell concurrently so SIGTERM/SIGINT can stop the node
	// mid-read. A signalled stop also dumps the flight ring: the black
	// box survives a supervised stop, not just a crash.
	shellDone := make(chan error, 1)
	go func() { shellDone <- shell(n.Core, in, out) }()
	select {
	case err = <-shellDone:
		stop(nil)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "tota-node: %v: shutting down\n", sig)
		stop(node.Signal{Signal: sig})
	}
	n.Wait()
	return err
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
