package gateway

import (
	"sync"

	"tota/internal/tuple"
)

// ringEntry is one gateway-observed engine event, retained for replay:
// the sequence it was assigned, the decoded tuple for template matching,
// and the part of its frame every subscription shares, ,"peer":…,"tuple":{…},
// rendered once and exactly sized (never nil), so fan-out to thousands of
// subscriptions marshals each tuple exactly once and splices it.
type ringEntry struct {
	seq    uint64
	typ    string
	tup    tuple.Tuple
	shared []byte
}

// eventRing is the bounded per-gateway replay buffer — the
// subscribe/replay contract: a client that reconnects with the last
// sequence it saw gets every newer retained event (a replay hit), or
// an explicit miss when the ring has already evicted part of the range
// so it knows its state is unreliable instead of silently gapped.
type eventRing struct {
	mu   sync.Mutex
	buf  []ringEntry
	next int // insertion index
	full bool
}

func newEventRing(size int) *eventRing {
	return &eventRing{buf: make([]ringEntry, size)}
}

func (r *eventRing) append(e ringEntry) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// oldestLocked returns the lowest retained sequence, or 0 when empty.
func (r *eventRing) oldestLocked() uint64 {
	if r.full {
		return r.buf[r.next].seq
	}
	if r.next == 0 {
		return 0
	}
	return r.buf[0].seq
}

// since returns the retained entries with seq > from in sequence order,
// and whether the range is complete (every event after from is still
// retained). A false return means eviction already ate part of the
// range: the caller must report a replay miss.
func (r *eventRing) since(from uint64) ([]ringEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	oldest := r.oldestLocked()
	if oldest == 0 {
		// Empty ring: complete iff nothing has ever been appended past
		// from (callers track the gateway seq separately; an empty ring
		// retains everything only when nothing was emitted).
		return nil, from >= r.lastLocked()
	}
	complete := from+1 >= oldest
	var out []ringEntry
	n := len(r.buf)
	start := 0
	count := r.next
	if r.full {
		start = r.next
		count = n
	}
	for i := 0; i < count; i++ {
		e := r.buf[(start+i)%n]
		if e.seq > from {
			out = append(out, e)
		}
	}
	return out, complete
}

// lastLocked returns the highest retained sequence, or 0 when empty.
func (r *eventRing) lastLocked() uint64 {
	if r.next > 0 {
		return r.buf[r.next-1].seq
	}
	if r.full {
		return r.buf[len(r.buf)-1].seq
	}
	return 0
}
