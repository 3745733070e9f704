package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"tota/internal/core"
	"tota/internal/tuple"
)

func TestFlightRecorderRingWrap(t *testing.T) {
	now := 0.0
	f := NewFlightRecorder(func() float64 { return now }, 4)
	tr := f.Tracer()
	for i := 1; i <= 10; i++ {
		now = float64(i)
		tr(ev(core.TraceStore, "n", "src", uint64(i)))
	}
	if got := f.Len(); got != 4 {
		t.Errorf("Len = %d, want 4 (ring capacity)", got)
	}
	if got := f.Total(); got != 10 {
		t.Errorf("Total = %d, want 10", got)
	}
	recs := f.Records()
	if len(recs) != 4 {
		t.Fatalf("records = %d, want 4", len(recs))
	}
	// Oldest surviving event first: 7, 8, 9, 10.
	for i, rec := range recs {
		wantT := float64(7 + i)
		wantID := fmt.Sprintf("src#%d", 7+i)
		if rec.T != wantT || rec.ID != wantID {
			t.Errorf("record %d = {T:%v ID:%s}, want {T:%v ID:%s}", i, rec.T, rec.ID, wantT, wantID)
		}
	}
}

func TestFlightRecorderBelowCapacity(t *testing.T) {
	f := NewFlightRecorder(nil, 8)
	tr := f.Tracer()
	tr(ev(core.TraceInject, "n", "src", 1))
	tr(ev(core.TraceStore, "m", "src", 1))
	recs := f.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if recs[0].Kind != "inject" || recs[1].Kind != "store" {
		t.Errorf("order = [%s %s], want [inject store]", recs[0].Kind, recs[1].Kind)
	}
}

// TestFlightRecorderSpanFields: span identity flows through the shared
// record conversion as hex strings, omitted when unsampled.
func TestFlightRecorderSpanFields(t *testing.T) {
	f := NewFlightRecorder(nil, 8)
	tr := f.Tracer()
	tr(core.TraceEvent{
		Kind: core.TraceStore, Node: "b", ID: tuple.ID{Node: "a", Seq: 1},
		TraceID: 0xabc, Span: 0x123, ParentSpan: 0x456,
	})
	tr(ev(core.TraceDup, "b", "a", 1))
	recs := f.Records()
	if recs[0].Trace != "abc" || recs[0].Span != "123" || recs[0].PSpan != "456" {
		t.Errorf("sampled record = %+v, want trace=abc span=123 pspan=456", recs[0])
	}
	if recs[1].Trace != "" || recs[1].Span != "" || recs[1].PSpan != "" {
		t.Errorf("unsampled record carries span fields: %+v", recs[1])
	}
	var b strings.Builder
	if err := f.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL lines = %d, want 2", len(lines))
	}
	if !strings.Contains(lines[0], `"span":"123"`) {
		t.Errorf("sampled line missing span: %s", lines[0])
	}
	if strings.Contains(lines[1], "span") {
		t.Errorf("unsampled line must omit span fields: %s", lines[1])
	}
}

// TestFlightEndpoint serves two recorders at /debug/flight and checks
// the concatenated JSONL parses back into trace records.
func TestFlightEndpoint(t *testing.T) {
	r := NewRegistry()
	f1 := NewFlightRecorder(nil, 8)
	f2 := NewFlightRecorder(nil, 8)
	f1.Tracer()(ev(core.TraceInject, "a", "a", 1))
	f2.Tracer()(ev(core.TraceStore, "b", "a", 1))

	srv, err := Serve("127.0.0.1:0", r, Extras{Flights: []*FlightRecorder{f1, f2}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var recs []TraceRecord
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		var rec TraceRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2 (one per recorder)", len(recs))
	}
	if recs[0].Node != "a" || recs[1].Node != "b" {
		t.Errorf("nodes = [%s %s], want [a b]", recs[0].Node, recs[1].Node)
	}

	// Without recorders the endpoint is absent.
	bare, err := Serve("127.0.0.1:0", r, Extras{})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	resp2, err := http.Get("http://" + bare.Addr() + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("bare /debug/flight status = %d, want 404", resp2.StatusCode)
	}
}

// TestFlightRecorderDumpOnCrash: the deferred hook dumps the ring and
// re-panics; a clean return dumps nothing.
func TestFlightRecorderDumpOnCrash(t *testing.T) {
	f := NewFlightRecorder(nil, 8)
	f.Tracer()(ev(core.TraceWithdraw, "n", "src", 3))
	var out strings.Builder

	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("DumpOnCrash swallowed the panic")
			}
		}()
		defer f.DumpOnCrash(&out)()
		panic("boom")
	}()
	if !strings.Contains(out.String(), "boom") || !strings.Contains(out.String(), `"withdraw"`) {
		t.Errorf("crash dump = %q, want panic value and ring contents", out.String())
	}

	out.Reset()
	func() {
		defer f.DumpOnCrash(&out)()
	}()
	if out.Len() != 0 {
		t.Errorf("clean return dumped: %q", out.String())
	}
}
