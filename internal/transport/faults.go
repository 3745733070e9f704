package transport

import (
	"math/rand"

	"tota/internal/tuple"
)

// Faults is a radio's complete fault state. SetFaults replaces it
// whole, so a driver heals a fault by passing a state without it. The
// radio keeps the maps it is given: callers must not change them.
// Fate is the only reader of the per-packet fields; Cut and Paused are
// read when a packet falls due.
type Faults struct {
	// Loss, Dup and Corrupt are the per-packet probabilities of a drop,
	// of a second delivered copy, and of injected byte flips (fed to the
	// receiver through the real wire decoder; the sender's payload is
	// copied first, never modified).
	Loss, Dup, Corrupt float64
	// Delay is the in-flight latency in rounds (Sim treats 0 as 1).
	// Queued packets keep the due round they were sent with.
	Delay int
	// LinkLoss and LinkDelay override Loss and Delay for one direction
	// of a link (asymmetric: a->b and b->a are distinct keys).
	LinkLoss  map[Link]float64
	LinkDelay map[Link]LinkDelay
	// Cut severs its members from the rest of the network: packets
	// crossing it (either direction) are discarded at delivery time and
	// counted in Stats.Blocked. Unlike RemoveEdge, no neighbor events
	// fire; engines on both sides must notice the silence themselves.
	Cut map[tuple.NodeID]bool
	// Paused nodes keep their links but process nothing: packets
	// addressed to them are held in flight (not dropped) until they
	// leave the set. Models GC stalls, sleep states, overloaded hosts.
	Paused map[tuple.NodeID]bool
}

// Link is one direction of a link.
type Link struct {
	From, To tuple.NodeID
}

// LinkDelay is a per-link latency: Rounds base latency plus a uniform
// seeded-random jitter of [0, Jitter] extra rounds per packet.
type LinkDelay struct {
	Rounds, Jitter int
}

// Copy is one copy of a packet that a link delivers: its bytes,
// Corrupted when they carry injected flips, and its latency in rounds.
type Copy struct {
	Data      []byte
	Delay     int
	Corrupted bool
}

// Fate decides what link l does with one packet. It writes the copies
// to deliver to copies[:n]: none when the packet is lost, two when it
// is duplicated, each corrupted and delayed on its own. It draws from
// rng in one fixed order: loss, duplication, then for each copy
// corruption (with CorruptBytes' own draws) and jitter, and only for
// enabled faults, so disabling one leaves the other draws unchanged.
// A corrupted copy never touches data or its first keep bytes.
func (f *Faults) Fate(rng *rand.Rand, l Link, data []byte, keep int, copies *[2]Copy) (n int) {
	loss := f.Loss
	if len(f.LinkLoss) != 0 {
		if p, ok := f.LinkLoss[l]; ok {
			loss = p
		}
	}
	if loss > 0 && rng.Float64() < loss {
		return 0
	}
	n = 1
	if f.Dup > 0 && rng.Float64() < f.Dup {
		n = 2
	}
	delay, jitter := f.Delay, 0
	if len(f.LinkDelay) != 0 {
		if d, ok := f.LinkDelay[l]; ok {
			delay, jitter = d.Rounds, d.Jitter
		}
	}
	for i := range copies[:n] {
		copies[i] = Copy{Data: data, Delay: delay}
		c := &copies[i]
		if f.Corrupt > 0 && rng.Float64() < f.Corrupt {
			c.Data, c.Corrupted = CorruptBytes(rng, data, keep), true
		}
		if jitter > 0 {
			c.Delay += rng.Intn(jitter + 1)
		}
	}
	return n
}

// CorruptBytes returns a copy of data with 1–3 random byte flips drawn
// from rng, none in its first keep bytes, for feeding corrupted frames
// through real wire decoders. The input slice is never modified
// (packet payloads are shared with sender-side encoding caches).
func CorruptBytes(rng *rand.Rand, data []byte, keep int) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	if len(out) <= keep {
		return out
	}
	flips := 1 + rng.Intn(3)
	for i := 0; i < flips; i++ {
		out[keep+rng.Intn(len(out)-keep)] ^= byte(1 + rng.Intn(255))
	}
	return out
}
