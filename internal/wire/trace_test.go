package wire

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/tracing"
)

// TestTraceVarintWireFrozen pins the varint layout of a traced envelope:
// marker, varint sender, TRACE code, varint trace id and span id, inner
// code, inner fields.
func TestTraceVarintWireFrozen(t *testing.T) {
	c := NewCodec()
	b, err := c.MarshalEnvelope(7, tracing.Wrap{
		Ctx:   tracing.Context{Trace: 2, Span: 3},
		Inner: core.LeaderMsg{Epoch: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		verVarintByte,
		7, // sender id, uvarint
		32,
		2, // trace id, uvarint
		3, // parent span id, uvarint
		1,
		5, // epoch, uvarint
	}
	if !reflect.DeepEqual(b, want) {
		t.Fatalf("varint trace envelope = % x, want % x", b, want)
	}
}

// TestTraceRoundTrip exercises the wrapper around a spread of inner kinds
// and context values — including full-width 64-bit ids.
func TestTraceRoundTrip(t *testing.T) {
	c := NewCodec()
	msgs := []node.Message{
		tracing.Wrap{Ctx: tracing.Context{Trace: 1, Span: 2}, Inner: &rsm.RequestMsg{V: "k=v"}},
		tracing.Wrap{Ctx: tracing.Context{Trace: 1 << 48, Span: 1<<48 | 9}, Inner: &rsm.AcceptMsg{B: 2, Inst: 40, V: "x", CommitUpTo: 39, MinDone: 12, LeaseSeq: 4}},
		tracing.Wrap{Ctx: tracing.Context{Trace: ^tracing.TraceID(0), Span: ^tracing.SpanID(0)}, Inner: &rsm.AcceptedMsg{B: 2, Inst: 40, Done: 39, LeaseSeq: 4}},
		tracing.Wrap{Ctx: tracing.Context{Trace: 5, Span: 0}, Inner: &rsm.DecideMsg{Inst: 9, V: consensus.Value("v")}},
	}
	for _, m := range msgs {
		if got := roundTrip(t, c, m); !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip changed value: %+v → %+v", m, got)
		}
	}
}

// TestTraceNestRejected proves the one-level bound in both directions: a
// trace wrapper inside a trace wrapper fails to encode, and a hand-crafted
// nested frame fails to decode — so decoder recursion depth is bounded by
// construction, not by a counter.
func TestTraceNestRejected(t *testing.T) {
	c := NewCodec()
	ctx := tracing.Context{Trace: 1, Span: 2}
	if _, err := c.Marshal(tracing.Wrap{Ctx: ctx, Inner: tracing.Wrap{Ctx: ctx, Inner: rsm.RequestMsg{V: "x"}}}); err == nil {
		t.Fatal("nested trace wrapper encoded")
	}
	// TRACE, trace id 1, span id 2, then TRACE again.
	if _, err := c.Unmarshal([]byte{verVarintByte, 32, 1, 2, 32}); err == nil {
		t.Fatal("nested trace frame decoded")
	}
}

// TestTraceEncodeRejects covers the remaining encoder guards: nil inner
// message and an inner kind the codec has never heard of.
func TestTraceEncodeRejects(t *testing.T) {
	c := NewCodec()
	ctx := tracing.Context{Trace: 1, Span: 2}
	if _, err := c.Marshal(tracing.Wrap{Ctx: ctx}); err == nil {
		t.Fatal("nil inner message encoded")
	}
	if _, err := c.Marshal(tracing.Wrap{Ctx: ctx, Inner: unknownMsg{}}); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown inner kind: err = %v, want ErrUnknownKind", err)
	}
}

type unknownMsg struct{}

func (unknownMsg) KindID() obs.Kind { return obs.Intern("UNKNOWN-TEST-KIND") }

// TestTraceDecodeRejects covers the decoder guards: frames that end
// mid-context or right after it, and an unknown inner code.
func TestTraceDecodeRejects(t *testing.T) {
	c := NewCodec()
	full := []byte{verVarintByte, 32, 1, 2}
	for cut := 1; cut < len(full); cut++ {
		if _, err := c.Unmarshal(full[:cut]); err == nil {
			t.Fatalf("frame cut at %d accepted", cut)
		}
	}
	if _, err := c.Unmarshal(append(append([]byte{}, full...), 0xEF)); !errors.Is(err, ErrUnknownCode) {
		t.Fatalf("unknown inner code: err = %v, want ErrUnknownCode", err)
	}
}

// TestTraceStrictTrailing confirms the top-level strict-decode contract
// through the wrapper — what makes TRACE a clean wire break for
// pre-tracing peers (they fail decoding, not misinterpret).
func TestTraceStrictTrailing(t *testing.T) {
	c := NewCodec()
	b, err := c.Marshal(tracing.Wrap{
		Ctx:   tracing.Context{Trace: 4, Span: 5},
		Inner: &rsm.DecideMsg{Inst: 4, V: consensus.Value("v")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Unmarshal(append(b, 0)); err == nil {
		t.Fatal("trace frame with trailing byte accepted")
	}
	if _, err := c.Unmarshal(b[:len(b)-1]); err == nil {
		t.Fatal("trace frame truncated by one byte accepted")
	}
}
