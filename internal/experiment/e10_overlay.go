package experiment

import (
	"fmt"

	"tota/internal/emulator"
	"tota/internal/overlay"
	"tota/internal/topology"
	"tota/internal/tuple"
)

// RunE10 evaluates the paper's virtual-space extrapolation (§3, §5.1):
// peers mapped onto a virtual ring, content-based routing as a TOTA
// propagation rule over the virtual geometry. Per network size and
// finger budget it reports put routing latency (radio rounds/key),
// traffic (sends/key), and correctness (every key at its owner, every
// get answered).
func RunE10(scale Scale) *Result {
	sizes := []int{16, 32}
	keys := 12
	if scale == Full {
		sizes = []int{16, 32, 64, 128}
		keys = 30
	}
	tbl := newTable(
		"E10 (§3/§5.1): content-based routing over a virtual ring overlay",
		"peers", "fingers", "rounds/key", "sends/key", "misplaced", "getsAnswered%")
	res := newResult(tbl)

	for _, n := range sizes {
		for _, fingers := range []int{0, 4} {
			rounds, sent, misplaced, answered := overlayTrial(n, fingers, keys)
			tbl.AddRow(n, fingers,
				float64(rounds)/float64(keys),
				float64(sent)/float64(keys),
				misplaced, answered)
			key := fmt.Sprintf("n%d_f%d", n, fingers)
			res.Metrics["rounds_per_key_"+key] = float64(rounds) / float64(keys)
			res.Metrics["misplaced_"+key] = float64(misplaced)
			res.Metrics["answered_"+key] = answered
		}
	}
	return res
}

func overlayTrial(n, fingers, keys int) (rounds int, sent int64, misplaced int, answeredPct float64) {
	g := topology.New()
	ids := make([]tuple.NodeID, n)
	for i := range ids {
		ids[i] = tuple.NodeID(fmt.Sprintf("peer-%03d", i))
	}
	layout, err := overlay.BuildRing(g, ids, fingers)
	if err != nil {
		return 0, 0, keys, 0
	}
	w := emulator.New(emulator.Config{Graph: g})
	peers := make(map[tuple.NodeID]*overlay.Peer, n)
	for _, id := range ids {
		p, err := overlay.NewPeer(w.Node(id), layout)
		if err != nil {
			return 0, 0, keys, 0
		}
		peers[id] = p
	}
	w.Settle(settleBudget)
	w.Sim().ResetStats()

	origin := peers[layout.Order[0]]
	for i := 0; i < keys; i++ {
		if err := origin.Put(fmt.Sprintf("key-%d", i), fmt.Sprintf("v%d", i)); err != nil {
			continue
		}
		rounds += w.Settle(settleBudget)
	}
	sent = w.Sim().Stats().Sent

	// Correctness: every key exactly at its owner.
	located := make(map[string]tuple.NodeID)
	for id, p := range peers {
		for _, kv := range p.Stored() {
			located[kv.Key] = id
		}
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		if located[k] != layout.OwnerOf(k) {
			misplaced++
		}
	}

	// Gets from a far peer.
	reader := peers[layout.Order[len(layout.Order)/2]]
	answered := 0
	for i := 0; i < keys; i++ {
		if err := reader.Get(fmt.Sprintf("key-%d", i)); err != nil {
			continue
		}
		w.Settle(settleBudget)
		for _, kv := range reader.Results() {
			if kv.Found {
				answered++
			}
		}
	}
	return rounds, sent, misplaced, 100 * float64(answered) / float64(keys)
}
