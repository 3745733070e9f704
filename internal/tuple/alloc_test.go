package tuple_test

import (
	"errors"
	"testing"

	"tota/internal/pattern"
	"tota/internal/tuple"
)

// newBenchGradient is the tuple the codec benchmarks and the encode
// alloc budget share: a gradient carrying one string field.
func newBenchGradient() *pattern.Gradient {
	g := pattern.NewGradient("bench", tuple.S("payload", "some description"))
	g.SetID(tuple.ID{Node: "n0001", Seq: 9})
	return g
}

func BenchmarkTupleEncode(b *testing.B) {
	g := newBenchGradient()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tuple.Encode(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTupleDecode(b *testing.B) {
	data, err := tuple.Encode(newBenchGradient())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tuple.Decode(tuple.DefaultRegistry, data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTupleEncodeAllocs holds encoding a gradient at the 5 allocations
// DESIGN.md §6 cites.
func TestTupleEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; alloc budgets hold only without -race")
	}
	g := newBenchGradient()
	got := testing.AllocsPerRun(200, func() {
		if _, err := tuple.Encode(g); err != nil {
			t.Fatal(err)
		}
	})
	if got != 5 {
		t.Errorf("tuple.Encode = %.0f allocs/op, want 5 (update DESIGN.md §6 if this is intended)", got)
	}
}

// TestRegistryParseIDAllocs: Registry.ParseID interns the node of a
// "node#seq" id, so a repeated id parses without allocating.
func TestRegistryParseIDAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; alloc budgets hold only without -race")
	}
	r := tuple.NewRegistry()
	b := []byte("n0042#17")
	want := tuple.ID{Node: "n0042", Seq: 17}
	got := testing.AllocsPerRun(50, func() {
		if id, err := r.ParseID(b); err != nil || id != want {
			t.Fatalf("ParseID = %v, %v", id, err)
		}
	})
	if got != 0 {
		t.Errorf("Registry.ParseID of a repeated id = %v allocs, want 0", got)
	}
}

// TestDecodeHostileCountAllocs: a field count of 2^40 behind a short
// body is refused before DecodeParts sizes its content from it.
func TestDecodeHostileCountAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; alloc budgets hold only without -race")
	}
	huge := []byte{3, 1 << 1, 'k', 1, 'n', 7, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20} // codec version 3, kind k, id n#7
	got := testing.AllocsPerRun(20, func() {
		if _, _, _, err := tuple.DecodeParts(huge); !errors.Is(err, tuple.ErrShortBuffer) {
			t.Fatalf("DecodeParts = %v, want ErrShortBuffer", err)
		}
	})
	if got != 0 {
		t.Errorf("DecodeParts of a hostile field count = %v allocs, want 0", got)
	}
}
