package transport

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// fateLink is the direction every Fate test sends over.
var fateLink = Link{From: "a", To: "b"}

func copiesEqual(got, want []Copy) bool {
	return slices.EqualFunc(got, want, func(a, b Copy) bool {
		return bytes.Equal(a.Data, b.Data) && a.Delay == b.Delay && a.Corrupted == b.Corrupted
	})
}

// TestFaultFate pins Faults.Fate, the one per-packet fault decision of
// Sim and the testnet relay. Each row replays the draws Fate must make,
// in its documented order, on a second rng of the same seed: the copies
// must match, and both rngs must be left in the same state. The
// subtests pin what the replay takes on trust.
func TestFaultFate(t *testing.T) {
	data := []byte("0123456789")
	for _, tc := range []struct {
		name string
		f    Faults
		keep int
		want func(ref *rand.Rand) []Copy
	}{
		{"clean: no draw", Faults{Delay: 2}, 0, func(*rand.Rand) []Copy {
			return []Copy{{Data: data, Delay: 2}}
		}},
		{"loss", Faults{Loss: 1}, 0, func(ref *rand.Rand) []Copy {
			ref.Float64()
			return nil
		}},
		{"link loss overrides loss", Faults{Loss: 1, LinkLoss: map[Link]float64{fateLink: 0}}, 0, func(*rand.Rand) []Copy {
			return []Copy{{Data: data}}
		}},
		{"link loss is one direction", Faults{Loss: 1, LinkLoss: map[Link]float64{{From: "b", To: "a"}: 0}}, 0, func(ref *rand.Rand) []Copy {
			ref.Float64()
			return nil
		}},
		{"dup", Faults{Dup: 1, Delay: 1}, 0, func(ref *rand.Rand) []Copy {
			ref.Float64()
			return []Copy{{Data: data, Delay: 1}, {Data: data, Delay: 1}}
		}},
		{"corrupt", Faults{Corrupt: 1}, 0, func(ref *rand.Rand) []Copy {
			ref.Float64()
			return []Copy{{Data: CorruptBytes(ref, data, 0), Corrupted: true}}
		}},
		{"keep covers the packet: no flip drawn", Faults{Corrupt: 1}, len(data), func(ref *rand.Rand) []Copy {
			ref.Float64()
			return []Copy{{Data: data, Corrupted: true}}
		}},
		{"link delay overrides delay", Faults{Delay: 5, LinkDelay: map[Link]LinkDelay{fateLink: {Rounds: 2, Jitter: 3}}}, 0, func(ref *rand.Rand) []Copy {
			return []Copy{{Data: data, Delay: 2 + ref.Intn(4)}}
		}},
		{"draw order: loss, dup, then corruption and jitter per copy", Faults{
			Loss: 0.25, Dup: 0.75, Corrupt: 0.5,
			LinkDelay: map[Link]LinkDelay{fateLink: {Rounds: 1, Jitter: 4}},
		}, 3, func(ref *rand.Rand) []Copy {
			if ref.Float64() < 0.25 {
				return nil
			}
			n := 1
			if ref.Float64() < 0.75 {
				n = 2
			}
			var cs []Copy
			for i := 0; i < n; i++ {
				c := Copy{Data: data, Delay: 1}
				if ref.Float64() < 0.5 {
					c.Data, c.Corrupted = CorruptBytes(ref, data, 3), true
				}
				c.Delay += ref.Intn(5)
				cs = append(cs, c)
			}
			return cs
		}},
	} {
		for seed := int64(1); seed <= 20; seed++ {
			rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			var copies [2]Copy
			n := tc.f.Fate(rng, fateLink, data, tc.keep, &copies)
			if want := tc.want(ref); !copiesEqual(copies[:n], want) {
				t.Errorf("%s, seed %d: copies %+v, want %+v", tc.name, seed, copies[:n], want)
			}
			if rng.Int63() != ref.Int63() {
				t.Errorf("%s, seed %d: Fate drew out of its documented order", tc.name, seed)
			}
		}
	}
	if string(data) != "0123456789" {
		t.Fatalf("Fate modified the packet: %q", data)
	}
	t.Run("duplicates are corrupted and delayed on their own", testFateDuplicates)
	t.Run("jitter bound is inclusive", testFateJitter)
	t.Run("keep prefix is never flipped", testFateKeep)
}

func testFateDuplicates(t *testing.T) {
	f := Faults{Dup: 1, Corrupt: 0.5, LinkDelay: map[Link]LinkDelay{fateLink: {Rounds: 1, Jitter: 4}}}
	rng := rand.New(rand.NewSource(1))
	var delays, corruption, bytesDiffer bool
	for i := 0; i < 100; i++ {
		var c [2]Copy
		n := f.Fate(rng, fateLink, []byte("payload"), 0, &c)
		if n != 2 {
			t.Fatalf("dup=1 gave %d copies", n)
		}
		delays = delays || c[0].Delay != c[1].Delay
		corruption = corruption || c[0].Corrupted != c[1].Corrupted
		bytesDiffer = bytesDiffer || c[0].Corrupted && c[1].Corrupted && !bytes.Equal(c[0].Data, c[1].Data)
	}
	if !delays || !corruption || !bytesDiffer {
		t.Errorf("copies always agreed: delays differ %v, corruption differs %v, corrupted bytes differ %v",
			delays, corruption, bytesDiffer)
	}
}

func testFateJitter(t *testing.T) {
	f := Faults{LinkDelay: map[Link]LinkDelay{fateLink: {Rounds: 2, Jitter: 2}}}
	rng := rand.New(rand.NewSource(1))
	seen := map[int]int{}
	for i := 0; i < 300; i++ {
		var c [2]Copy
		f.Fate(rng, fateLink, nil, 0, &c)
		seen[c[0].Delay]++
	}
	if len(seen) != 3 || seen[2] == 0 || seen[3] == 0 || seen[4] == 0 {
		t.Errorf("delays %v, want each of 2, 3 and 4", seen)
	}
}

// testFateKeep: corruption never flips the first keep bytes (the relay
// keeps the frame header so attribution survives), and always flips
// some byte after them.
func testFateKeep(t *testing.T) {
	f := Faults{Corrupt: 1}
	data := []byte("headerbody")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		var c [2]Copy
		f.Fate(rng, fateLink, data, 6, &c)
		if !bytes.Equal(c[0].Data[:6], data[:6]) {
			t.Fatalf("draw %d flipped the kept prefix: %q", i, c[0].Data)
		}
		if bytes.Equal(c[0].Data[6:], data[6:]) {
			t.Fatalf("draw %d flipped nothing: %q", i, c[0].Data)
		}
	}
	if string(data) != "headerbody" {
		t.Fatalf("Fate modified the packet: %q", data)
	}
}

// TestFaultFateAllocs holds a verdict without corruption at zero
// allocations: its copies share the packet's bytes.
func TestFaultFateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates; alloc budgets hold only without -race")
	}
	f := Faults{
		Loss: 0.2, Dup: 0.5, Delay: 1,
		LinkLoss:  map[Link]float64{fateLink: 0.1},
		LinkDelay: map[Link]LinkDelay{fateLink: {Rounds: 1, Jitter: 2}},
	}
	rng := rand.New(rand.NewSource(1))
	data := []byte("payload")
	var copies [2]Copy
	if got := testing.AllocsPerRun(1000, func() { f.Fate(rng, fateLink, data, 0, &copies) }); got != 0 {
		t.Errorf("Fate = %.0f allocs/op, want 0", got)
	}
}
