package wire

import (
	"reflect"
	"testing"

	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/detector/source"
	"repro/internal/node"
	"repro/internal/tracing"
)

// FuzzEnvelopeRoundTrip drives arbitrary bytes through UnmarshalEnvelope
// and, whenever a frame decodes, re-marshals the message and demands a
// byte-stable fixpoint and strict decoding of the canonical frame. The
// fuzzer therefore explores five invariants at once:
//
//  1. no input panics or over-allocates (the decoder range-checks every
//     length prefix before allocating);
//  2. a frame that does not open with the marker byte is refused;
//  3. decode∘encode is the identity on every decodable value;
//  4. canonical frames are strict — truncating one byte yields an error,
//     and so does appending one;
//  5. a connection decoder agrees with the shared path on every input,
//     twice, and its messages survive the input being overwritten
//     (checkConnDecode).
//
// Each seed message goes in twice: as its frame, and with the marker cut
// off.
func FuzzEnvelopeRoundTrip(f *testing.F) {
	c := NewCodec()
	seedMsgs := []struct {
		from node.ID
		msg  node.Message
	}{
		{0, core.LeaderMsg{Epoch: 1}},
		{1, core.AccuseMsg{Epoch: 300}},
		{2, source.AliveMsg{Counters: []uint64{1, 1 << 40, 0}}},
		{3, rsm.PromiseMsg{B: 9, Entries: []rsm.PromEntry{{Inst: 2, AccB: 2, AccV: "seed"}}}},
		{4, &rsm.AcceptMsg{B: 5, Inst: 7, V: "cmd", CommitUpTo: 6, LeaseSeq: 3}},
		{0, &rsm.AcceptMsg{B: 5, Inst: 7, V: "cmd", CommitUpTo: 6, LeaseSeq: 3, Repliers: 1 << 1}}, // p1 alone replies
		{0, &rsm.DecideMsg{B: 5, Inst: 8}},
		{1, &rsm.DecideMsg{Inst: 7, V: "cmd"}},
		{1, rsm.LeaseGrantMsg{B: 5, Seq: 8}},
		{2, rsm.LeaseAckMsg{B: 5, Seq: 8}},
		{3, &rsm.ReadReqMsg{Seq: 41, Count: 16, Origin: 3}},
		{4, &rsm.ReadReplyMsg{Seq: 41, Count: 16, Index: 99, Local: true}},
		{0, readReply(21)},
		{0, readReply(128)},
		{1, &rsm.ReadReqMsg{Seq: 1, Count: 1, Origin: 7}}, // an origin outside a cluster of 3: decodes, and rsm drops it
		// Instance numbers no log reaches: they decode, and rsm neither votes
		// across the hole nor sizes its window by them.
		{1, &rsm.AcceptMsg{B: 5, Inst: 1 << 28, V: "far", CommitUpTo: 6}},
		{1, &rsm.DecideMsg{Inst: 1 << 28, V: "far"}},
		{2, rsm.PromiseMsg{B: 5, Entries: []rsm.PromEntry{{Inst: 1 << 28, AccB: 4, AccV: "far"}}}},
		// A promise reporting decisions under NoBallot, a prefix no log reaches among them.
		{2, rsm.PromiseMsg{B: 5, Entries: []rsm.PromEntry{{Inst: 1 << 40}, {Inst: 1<<40 + 2, AccB: 4, AccV: "vote"}, {Inst: 1<<40 + 3, AccV: "decided"}}}},
		{0, tracing.Wrap{Ctx: tracing.Context{Trace: 1 << 48, Span: 1<<48 | 2}, Inner: &rsm.RequestMsg{V: "k=v"}}},
		{3, tracing.Wrap{Ctx: tracing.Context{Trace: 7, Span: 8}, Inner: &rsm.AcceptMsg{B: 5, Inst: 7, V: "cmd", CommitUpTo: 6, LeaseSeq: 3}}},
		{2, tracing.Wrap{Ctx: tracing.Context{Trace: 9, Span: 10}, Inner: &rsm.AcceptedMsg{B: 5, Inst: 7, Done: 6, LeaseSeq: 3}}},
		{1, tracing.Wrap{Ctx: tracing.Context{Trace: 3, Span: 4}, Inner: core.LeaderMsg{Epoch: 9}}},
		{4, tracing.Wrap{Ctx: tracing.Context{Trace: ^tracing.TraceID(0), Span: ^tracing.SpanID(0)}, Inner: &rsm.DecideMsg{Inst: 9, V: "v"}}},
		{0, tracing.Wrap{Ctx: tracing.Context{Trace: 5}, Inner: rsm.LeaseGrantMsg{B: 5, Seq: 8}}},
	}
	for _, s := range seedMsgs {
		b, err := c.MarshalEnvelope(s.from, s.msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[1:])
	}
	f.Add([]byte{})
	f.Add([]byte{verVarintByte})
	f.Add([]byte{0, 0, 0, 1, 1})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, b []byte) {
		env, err := c.UnmarshalEnvelope(b)
		// A decoder per input: one shared between inputs would make the
		// coverage an input reaches depend on how full its chunk is.
		checkConnDecode(t, c.NewConnDecoder(), b, env, err)
		if err != nil {
			if env.Msg != nil {
				t.Fatal("error with non-nil message")
			}
			return
		}
		if b[0] != verVarintByte {
			t.Fatalf("frame opening with %#x decoded", b[0])
		}
		canon, err := c.MarshalEnvelope(env.From, env.Msg)
		if err != nil {
			t.Fatalf("re-marshal of decoded %T: %v", env.Msg, err)
		}
		again, err := c.UnmarshalEnvelope(canon)
		if err != nil {
			t.Fatalf("canonical frame rejected: %v", err)
		}
		if again.From != env.From || !reflect.DeepEqual(again.Msg, env.Msg) {
			t.Fatalf("round trip changed value: %+v → %+v", env, again)
		}
		if _, err := c.UnmarshalEnvelope(canon[:len(canon)-1]); err == nil {
			t.Fatal("frame truncated by one byte accepted")
		}
		if _, err := c.UnmarshalEnvelope(append(canon[:len(canon):len(canon)], 0)); err == nil {
			t.Fatal("frame with a trailing byte accepted")
		}
	})
}
