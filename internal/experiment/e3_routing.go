package experiment

import (
	"fmt"
	"math/rand"

	"tota/internal/emulator"
	"tota/internal/mobility"
	"tota/internal/routing"
	"tota/internal/space"
	"tota/internal/topology"
	"tota/internal/tuple"
)

// RunE3 reproduces the §5.1 MANET routing example: gradient routing
// over the TOTA overlay structure versus the flooding baseline, under
// increasing node mobility (random waypoint). Reported per protocol and
// speed: delivery ratio and radio sends per delivered message. The
// expected shape: gradient routing delivers with a fraction of the
// flood's traffic while the structure can be maintained, and the gap
// narrows as mobility rises (the paper: "in all situations in which
// such information is absent, the routing simply reduces to flooding").
func RunE3(scale Scale) *Result {
	nNodes := 40
	msgs := 8
	speeds := []float64{0, 1}
	if scale == Full {
		nNodes = 80
		msgs = 20
		speeds = []float64{0, 0.5, 1, 2}
	}
	tbl := newTable(
		"E3 (§5.1): MANET routing — TOTA gradient routing vs flooding baseline",
		"protocol", "speed", "delivered", "sent", "delivery%", "radioSends/msg")
	res := newResult(tbl)

	for _, speed := range speeds {
		gDel, gSends := routeTrial(nNodes, msgs, speed, true)
		fDel, fSends := routeTrial(nNodes, msgs, speed, false)
		addE3Row(tbl, res, "gradient", speed, gDel, msgs, gSends)
		addE3Row(tbl, res, "flood", speed, fDel, msgs, fSends)
	}
	return res
}

func addE3Row(tbl *Table, res *Result, proto string, speed float64, delivered, msgs int, sends int64) {
	perMsg := 0.0
	if delivered > 0 {
		perMsg = float64(sends) / float64(delivered)
	}
	tbl.AddRow(proto, speed, delivered, msgs, 100*float64(delivered)/float64(msgs), perMsg)
	key := fmt.Sprintf("%s_v%g", proto, speed)
	res.Metrics["delivery_"+key] = float64(delivered) / float64(msgs)
	res.Metrics["sends_"+key] = perMsg
}

// routeTrial runs one mobility scenario and returns (delivered, radio
// sends attributable to the messages).
func routeTrial(nNodes, msgs int, speed float64, gradient bool) (int, int64) {
	const (
		side  = 10.0
		radio = 2.6
		seed  = 77
	)
	rng := rand.New(rand.NewSource(seed))
	g := topology.ConnectedRandomGeometric(nNodes, side, radio, rng, 200)
	if g == nil {
		return 0, 0
	}
	w := emulator.New(emulator.Config{Graph: g, RadioRange: radio, Seed: seed})
	bounds := space.Rect{Max: space.Point{X: side, Y: side}}
	if speed > 0 {
		for _, id := range g.Nodes() {
			p, _ := g.Position(id)
			w.SetMover(id, mobility.NewRandomWaypoint(p, bounds, speed/2, speed, 0, rng))
		}
	}

	nodes := g.Nodes()
	dst := nodes[0]
	var gr *routing.Router
	var fr *routing.FloodRouter
	if gradient {
		gr = routing.NewRouter(w.Node(dst))
		if _, err := gr.Advertise(); err != nil {
			return 0, 0
		}
	} else {
		fr = routing.NewFloodRouter(w.Node(dst))
	}
	w.Settle(settleBudget)
	w.Sim().ResetStats()

	delivered := 0
	for i := 0; i < msgs; i++ {
		src := nodes[1+rng.Intn(len(nodes)-1)]
		var err error
		if gradient {
			err = routing.NewRouter(w.Node(src)).Send(dst, tuple.I("i", int64(i)))
		} else {
			err = routing.NewFloodRouter(w.Node(src)).Send(dst, tuple.I("i", int64(i)))
		}
		if err != nil {
			continue
		}
		// Let the network move while the message is in flight.
		for tick := 0; tick < 5; tick++ {
			w.Tick(0.2)
		}
		w.Settle(settleBudget)
		if gradient {
			delivered += len(gr.Inbox())
		} else {
			delivered += len(fr.Inbox())
		}
	}
	return delivered, w.Sim().Stats().Sent
}
