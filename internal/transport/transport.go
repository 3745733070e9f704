// Package transport defines the communication substrate TOTA runs on
// and provides a deterministic simulated radio network for emulation and
// testing. A real UDP transport lives in the udp subpackage.
//
// TOTA's engine needs very little from its substrate: a node identity, a
// one-hop broadcast (the paper's multicast-socket communication), an
// optional one-hop unicast, and notification of neighbor appearance /
// disappearance. Everything above that — propagation, dedup,
// maintenance — is middleware.
package transport

import (
	"errors"

	"tota/internal/tuple"
)

// ErrClosed is what a closed transport's Broadcast and Send return: the
// node is stopping, so the engine counts the failed send and does not
// log it.
var ErrClosed = errors.New("transport: closed")

// Sender is the outgoing half of a transport, the only part the
// middleware engine needs to emit traffic.
type Sender interface {
	// Self returns the node's unique identity.
	Self() tuple.NodeID
	// Neighbors returns the current one-hop neighborhood.
	Neighbors() []tuple.NodeID
	// Broadcast delivers data to every current neighbor.
	Broadcast(data []byte) error
	// Send delivers data to a single neighbor.
	Send(to tuple.NodeID, data []byte) error
}

// FrameLimiter is optionally implemented by transports that bound the
// payload size of one transmission (e.g. a UDP transport constrained by
// the link MTU). The middleware engine packs its coalesced batch frames
// against the reported budget; transports that don't implement it get
// the engine's default.
type FrameLimiter interface {
	// FramePayloadLimit returns the largest payload, in bytes, the
	// transport can carry in one Broadcast or Send.
	FramePayloadLimit() int
}

// PayloadReleaser is optionally implemented by transports that finish
// with the payload bytes before Broadcast or Send returns — e.g. the
// UDP transport, which copies the payload into a datagram frame
// synchronously. It only reports what the transport does: the
// middleware engine does not rely on it, and never writes bytes it has
// handed to any transport again. The zero-copy simulated radio, which
// queues payload slices in flight, does not implement it.
type PayloadReleaser interface {
	// ReleasesPayloads reports that payload slices passed to Broadcast
	// and Send are not retained after the call returns.
	ReleasesPayloads() bool
}

// Handler receives the incoming half of a transport: packets from
// neighbors and neighborhood change notifications. The middleware node
// implements it.
type Handler interface {
	// HandlePacket processes one packet from a one-hop neighbor.
	HandlePacket(from tuple.NodeID, data []byte)
	// HandleNeighbor processes a neighbor appearing (added true) or
	// disappearing (added false).
	HandleNeighbor(peer tuple.NodeID, added bool)
}

// Stats counts substrate-level traffic for the experiments' overhead
// metrics. Each field's tags name the metric it is exposed as
// (obs.RegisterStats) and say what it counts. PayloadBytes counts lost
// packets too — the radio still spent the airtime — so experiments can
// report wire cost per epoch, not just frame counts. Blocked packets
// are not counted in Dropped.
type Stats struct {
	Sent         int64 `metric:"tota_radio_sent_total" help:"Point-to-point transmissions (a broadcast to k neighbors counts k)."`
	PayloadBytes int64 `metric:"tota_radio_payload_bytes_total" help:"Radio payload bytes transmitted."`
	Broadcasts   int64 `metric:"tota_radio_broadcasts_total" help:"Broadcast operations."`
	Delivered    int64 `metric:"tota_radio_delivered_total" help:"Packets handed to handlers."`
	Dropped      int64 `metric:"tota_radio_dropped_total" help:"Packets lost in flight."`
	Corrupted    int64 `metric:"tota_radio_corrupted_total" help:"Packets delivered with injected byte flips (fault injection)."`
	Blocked      int64 `metric:"tota_radio_blocked_total" help:"Packets discarded at a partition cut (fault injection)."`
}
