package experiment

import (
	"fmt"
	"time"

	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/transport/udp"
	"tota/internal/tuple"
)

// RunE8 exercises the §4.2 communication substrate for real: a chain of
// TOTA nodes over UDP on the loopback interface, with beacon-based
// neighbor discovery standing in for the paper's 802.11b MANET mode.
// Per chain length it reports the neighbor discovery latency, the
// end-to-end structure propagation latency, and the packet duplication
// overhead absorbed by tuple-id dedup.
func RunE8(scale Scale) *Result {
	lengths := []int{2, 4}
	if scale == Full {
		lengths = append(lengths, 8, 16)
	}
	tbl := newTable(
		"E8 (§4.2): UDP loopback substrate — discovery and propagation latency",
		"chain", "discovery(ms)", "propagation(ms)", "packetsIn", "stored", "dupOverhead")
	res := newResult(tbl)

	for _, n := range lengths {
		disc, prop, packets, stored, ok := udpChainTrial(n)
		if !ok {
			tbl.AddRow(fmt.Sprintf("%d nodes", n), "timeout", "timeout", 0, 0, 0)
			continue
		}
		dup := 0.0
		if stored > 0 {
			dup = float64(packets) / float64(stored)
		}
		tbl.AddRow(fmt.Sprintf("%d nodes", n),
			float64(disc.Milliseconds()), float64(prop.Milliseconds()),
			packets, stored, dup)
		res.Metrics[fmt.Sprintf("discovery_ms_%d", n)] = float64(disc.Milliseconds())
		res.Metrics[fmt.Sprintf("propagation_ms_%d", n)] = float64(prop.Milliseconds())
	}
	return res
}

func udpChainTrial(n int) (discovery, propagation time.Duration, packetsIn, stored int64, ok bool) {
	const (
		hello    = 10 * time.Millisecond
		timeout  = 80 * time.Millisecond
		deadline = 10 * time.Second
	)
	trs := make([]*udp.Transport, n)
	nodes := make([]*core.Node, n)
	for i := 0; i < n; i++ {
		tr, err := udp.New(udp.Config{
			NodeID:        tuple.NodeID(fmt.Sprintf("u%02d", i)),
			HelloInterval: hello,
			PeerTimeout:   timeout,
		})
		if err != nil {
			return 0, 0, 0, 0, false
		}
		defer func() { _ = tr.Close() }()
		trs[i] = tr
		nodes[i] = core.New(tr)
		tr.SetHandler(nodes[i])
	}
	for i := 1; i < n; i++ {
		if trs[i].AddPeer(trs[i-1].Addr()) != nil || trs[i-1].AddPeer(trs[i].Addr()) != nil {
			return 0, 0, 0, 0, false
		}
	}
	start := time.Now()
	for _, tr := range trs {
		tr.Start()
	}
	if !waitFor(deadline, func() bool {
		for i, nd := range nodes {
			want := 2
			if i == 0 || i == n-1 {
				want = 1
			}
			if len(nd.Neighbors()) != want {
				return false
			}
		}
		return true
	}) {
		return 0, 0, 0, 0, false
	}
	discovery = time.Since(start)

	start = time.Now()
	if _, err := nodes[0].Inject(pattern.NewGradient("e8")); err != nil {
		return 0, 0, 0, 0, false
	}
	want := float64(n - 1)
	if !waitFor(deadline, func() bool {
		ts := nodes[n-1].Read(pattern.ByName(pattern.KindGradient, "e8"))
		return len(ts) == 1 && ts[0].(tuple.Maintained).Value() == want
	}) {
		return 0, 0, 0, 0, false
	}
	propagation = time.Since(start)

	for _, nd := range nodes {
		st := nd.Stats()
		packetsIn += st.PacketsIn
		stored += st.Stored
	}
	return discovery, propagation, packetsIn, stored, true
}

func waitFor(d time.Duration, cond func() bool) bool {
	stop := time.Now().Add(d)
	for time.Now().Before(stop) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}
