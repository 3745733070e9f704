package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"tota/internal/core"
)

// DefaultFlightSize is the ring capacity a FlightRecorder uses when the
// caller passes a non-positive size.
const DefaultFlightSize = 4096

// FlightRecorder keeps the last N trace events of one node in a
// fixed-size in-memory ring — the black box that survives until a
// crash or a /debug/flight scrape, independent of any export pipeline.
// Unlike the JSONL sink it never sheds under backpressure (there is no
// channel to fill: recording is one stamp, one mutex, one slot write)
// and never grows (old events are overwritten in arrival order).
//
// Recording takes a plain mutex, because a real node traces from its
// UDP receive and refresh-ticker goroutines at once. Trace events only
// fire on state changes — never on the per-packet fast path — and the
// critical section is a single slot assignment, so contention is
// negligible.
type FlightRecorder struct {
	clock func() float64

	mu    sync.Mutex
	ring  []stampedEvent
	next  int
	total uint64
}

// NewFlightRecorder builds a recorder stamping events with clock (nil
// means "always 0") keeping the last size events (<=0 selects
// DefaultFlightSize).
func NewFlightRecorder(clock func() float64, size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightSize
	}
	if clock == nil {
		clock = func() float64 { return 0 }
	}
	return &FlightRecorder{clock: clock, ring: make([]stampedEvent, 0, size)}
}

// Tracer returns the core.Tracer feeding this recorder.
func (f *FlightRecorder) Tracer() core.Tracer {
	return func(ev core.TraceEvent) {
		t := f.clock()
		f.mu.Lock()
		if len(f.ring) < cap(f.ring) {
			f.ring = append(f.ring, stampedEvent{t: t, ev: ev})
		} else {
			f.ring[f.next] = stampedEvent{t: t, ev: ev}
		}
		f.next++
		if f.next == cap(f.ring) {
			f.next = 0
		}
		f.total++
		f.mu.Unlock()
	}
}

// Len returns how many events the ring currently holds.
func (f *FlightRecorder) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ring)
}

// Total returns how many events were ever recorded, including those
// the ring has since overwritten.
func (f *FlightRecorder) Total() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// Records returns the retained events, oldest first, converted to the
// shared JSONL trace schema.
func (f *FlightRecorder) Records() []TraceRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]TraceRecord, 0, len(f.ring))
	// When the ring has wrapped, next points at the oldest slot.
	start := 0
	if len(f.ring) == cap(f.ring) {
		start = f.next
	}
	for i := 0; i < len(f.ring); i++ {
		se := f.ring[(start+i)%len(f.ring)]
		out = append(out, NewTraceRecord(se.t, se.ev))
	}
	return out
}

// WriteJSONL dumps the retained events, oldest first, as JSON lines —
// the same schema the JSONLSink exports, so tota-trace ingests flight
// dumps and sink files interchangeably.
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range f.Records() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DumpOnCrash returns a function to defer at the top of a goroutine or
// main: on panic it writes the flight ring to w (the last moments
// before the crash) and re-panics; on normal return it does nothing.
//
//	defer fr.DumpOnCrash(os.Stderr)()
func (f *FlightRecorder) DumpOnCrash(w io.Writer) func() {
	return func() {
		r := recover()
		if r == nil {
			return
		}
		fmt.Fprintf(w, "panic: %v — flight recorder dump (%d events, %d total recorded):\n", r, f.Len(), f.Total())
		if err := f.WriteJSONL(w); err != nil {
			fmt.Fprintf(w, "flight dump failed: %v\n", err)
		}
		panic(r)
	}
}
