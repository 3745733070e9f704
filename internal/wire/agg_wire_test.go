package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"tota/internal/agg"
	"tota/internal/tuple"
)

func TestPartialMessageRoundTrip(t *testing.T) {
	r := newWireRegistry(t)
	p := agg.NewPartial()
	p.Observe(agg.Sum, 4.5)
	p.Observe(agg.Sum, -2)

	t.Run("combining", func(t *testing.T) {
		msg := Message{
			Type:    MsgPartial,
			ID:      tuple.ID{Node: "root", Seq: 12},
			Partial: p,
		}
		data, err := Encode(msg)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		got, err := Decode(r, data)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if got.Type != MsgPartial || got.ID != msg.ID || !got.Origin.IsZero() {
			t.Errorf("envelope = %+v", got)
		}
		if got.Partial != p {
			t.Errorf("partial = %+v, want %+v", got.Partial, p)
		}
	})

	t.Run("collect with sketch", func(t *testing.T) {
		sp := agg.NewPartial()
		sp.Observe(agg.CountDistinct, 1)
		sp.Observe(agg.CountDistinct, 2)
		msg := Message{
			Type:    MsgPartial,
			ID:      tuple.ID{Node: "root", Seq: 12},
			Origin:  tuple.ID{Node: "leaf-7", Seq: 3},
			Partial: sp,
		}
		data, err := Encode(msg)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		got, err := Decode(r, data)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if got.Origin != msg.Origin {
			t.Errorf("origin = %+v", got.Origin)
		}
		if !got.Partial.HasSketch || got.Partial != sp {
			t.Errorf("partial = %+v, want %+v", got.Partial, sp)
		}
	})

	t.Run("empty partial keeps infinities", func(t *testing.T) {
		msg := Message{Type: MsgPartial, ID: tuple.ID{Node: "r", Seq: 1}, Partial: agg.NewPartial()}
		data, err := Encode(msg)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		got, err := Decode(r, data)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !math.IsInf(got.Partial.Min, 1) || !math.IsInf(got.Partial.Max, -1) {
			t.Errorf("empty partial = %+v", got.Partial)
		}
	})
}

func TestQueryPartialBatchable(t *testing.T) {
	r := newWireRegistry(t)
	id := tuple.ID{Node: "root", Seq: 1}
	combined, err := Encode(Message{Type: MsgPartial, ID: id, Partial: agg.NewPartial()})
	if err != nil {
		t.Fatalf("Encode partial: %v", err)
	}
	record, err := Encode(Message{Type: MsgPartial, ID: id, Origin: tuple.ID{Node: "leaf", Seq: 2}, Partial: agg.NewPartial()})
	if err != nil {
		t.Fatalf("Encode record: %v", err)
	}
	frame, err := EncodeBatch([][]byte{combined, record})
	if err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}
	got, err := Decode(r, frame)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got.Batch) != 2 || got.Batch[0].Type != MsgPartial || got.Batch[1].Origin.Node != "leaf" {
		t.Fatalf("batch = %+v", got)
	}
}

func TestPartialRejectsBadSketchCounts(t *testing.T) {
	r := newWireRegistry(t)
	sp := agg.NewPartial()
	sp.Observe(agg.CountDistinct, 7)
	good, err := Encode(Message{Type: MsgPartial, ID: tuple.ID{Node: "n", Seq: 1}, Partial: sp})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	body := good[:len(good)-ChecksumSize]
	// The sketch word count sits right before the sketch words.
	wordsOff := len(body) - agg.SketchWords*8 - 2

	reword := func(words uint16, truncate int) []byte {
		b := append([]byte(nil), body...)
		binary.BigEndian.PutUint16(b[wordsOff:], words)
		return seal(b[:len(b)-truncate])
	}
	if _, err := Decode(r, reword(MaxSketchWords+1, 0)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized words: %v", err)
	}
	if _, err := Decode(r, reword(agg.SketchWords-1, 0)); !errors.Is(err, ErrSketchSize) {
		t.Errorf("undersized words: %v", err)
	}
	if _, err := Decode(r, reword(agg.SketchWords, 16)); !errors.Is(err, ErrShort) {
		t.Errorf("truncated sketch: %v", err)
	}
	// A claimed in-bounds-but-wrong count larger than the real one must
	// be rejected before any read past the buffer.
	if _, err := Decode(r, reword(MaxSketchWords, 0)); !errors.Is(err, ErrSketchSize) {
		t.Errorf("inflated words: %v", err)
	}
}

func TestAggMsgTypeStrings(t *testing.T) {
	if MsgPartial.String() != "partial" {
		t.Errorf("name = %q", MsgPartial.String())
	}
}
