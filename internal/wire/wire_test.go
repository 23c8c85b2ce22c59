package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/detector/alltoall"
	"repro/internal/detector/source"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/tracing"
)

// readReply returns a READ-REPLY answering k single reads numbered from 100
// upwards: all but the first packed into More the way rsm packs them, as
// uvarint (distance from the previous number, count) pairs.
func readReply(k int) *rsm.ReadReplyMsg {
	var more []byte
	for i := 1; i < k; i++ {
		more = binary.AppendUvarint(binary.AppendUvarint(more, 1), 1)
	}
	return &rsm.ReadReplyMsg{Seq: 100, Count: 1, Index: 4242, Local: true, More: string(more)}
}

// roundTrip marshals and unmarshals m, failing on any error.
func roundTrip(t *testing.T, c *Codec, m node.Message) node.Message {
	t.Helper()
	b, err := c.Marshal(m)
	if err != nil {
		t.Fatalf("Marshal(%T): %v", m, err)
	}
	out, err := c.Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal(%T): %v", m, err)
	}
	return out
}

// allMessages holds at least one message of every registered kind.
func allMessages() []node.Message {
	return []node.Message{
		core.LeaderMsg{Epoch: 42},
		core.AccuseMsg{Epoch: 7},
		core.RebuffMsg{Epoch: 9},
		alltoall.AliveMsg{},
		source.AliveMsg{Counters: []uint64{1, 0, 99}},
		&rsm.RequestMsg{V: "cmd"},
		rsm.PrepareMsg{B: 9},
		rsm.PromiseMsg{B: 9, Entries: []rsm.PromEntry{{Inst: 1, AccB: 2, AccV: "a"}, {Inst: 5, AccB: 9, AccV: "b"}}},
		rsm.PromiseMsg{B: 9},
		rsm.NackMsg{B: 9, Promised: 12},
		&rsm.AcceptMsg{B: 9, Inst: 4, V: "x", CommitUpTo: 3, MinDone: 2, LeaseSeq: 6},
		&rsm.AcceptMsg{B: 9, Inst: 4, V: "x", CommitUpTo: 3, MinDone: 2, LeaseSeq: 6, Repliers: 1 << 2},     // p2 alone replies
		&rsm.AcceptMsg{B: 9, Inst: 4, V: "x", CommitUpTo: 3, MinDone: 2, LeaseSeq: 6, Repliers: ^uint64(0)}, // the widest set
		&rsm.AcceptedMsg{B: 9, Inst: 4, Done: 11, LeaseSeq: 6},
		&rsm.DecideMsg{Inst: 4, V: "x"}, // by value: the repair reply
		&rsm.DecideMsg{Inst: 4},         // by value, the empty value
		&rsm.DecideMsg{B: 9, Inst: 5},   // by index: the commit announcement
		rsm.LearnMsg{FirstGap: 11},
		rsm.LeaseGrantMsg{B: 9, Seq: 7},
		rsm.LeaseAckMsg{B: 9, Seq: 7},
		&rsm.ReadReqMsg{Seq: 100, Count: 64, Origin: 2},
		&rsm.ReadReplyMsg{Seq: 100, Count: 64, Index: 4242, Local: true},
		readReply(21),  // what a turn of the benchmark's leader answers at once
		readReply(128), // a whole turn (loop.MaxTurn) of reads from one origin
		tracing.Wrap{Ctx: tracing.Context{Trace: 1 << 40, Span: 3}, Inner: &rsm.RequestMsg{V: "traced"}},
	}
}

func TestRoundTripAllMessageTypes(t *testing.T) {
	c := NewCodec()
	for _, m := range allMessages() {
		got := roundTrip(t, c, m)
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip changed %T: %+v → %+v", m, m, got)
		}
	}
}

// TestInjectedValuesEncodeAsBoxes: a client outside the cluster may send a
// REQ or a READ as a plain value. That is the frame of the box a replica
// sends, and it decodes into a box like any other.
func TestInjectedValuesEncodeAsBoxes(t *testing.T) {
	c := NewCodec()
	for _, tc := range []struct{ plain, box node.Message }{
		{rsm.RequestMsg{V: "cmd"}, &rsm.RequestMsg{V: "cmd"}},
		{rsm.ReadReqMsg{Seq: 9, Count: 2, Origin: 1}, &rsm.ReadReqMsg{Seq: 9, Count: 2, Origin: 1}},
	} {
		plain, perr := c.Marshal(tc.plain)
		box, berr := c.Marshal(tc.box)
		if perr != nil || berr != nil || !bytes.Equal(plain, box) {
			t.Fatalf("%s: plain % x (%v), boxed % x (%v)", obs.KindName(tc.box.KindID()), plain, perr, box, berr)
		}
		if got := roundTrip(t, c, tc.plain); !reflect.DeepEqual(got, tc.box) {
			t.Fatalf("%s: a plain value decoded as %#v, want %#v", obs.KindName(tc.box.KindID()), got, tc.box)
		}
	}
}

// TestRoundTripCoversEveryRegisteredKind pins every type code to its kind,
// so that renumbering one fails here — codes are append only — and every
// retired code (5–17, the synod and ct kinds, and 31, the group wrapper)
// to ErrUnknownCode, so that reusing one fails too; and it holds allMessages to a message of each.
// A kind is named by its type: the kind a registration reads off its type
// parameter, and the KindID of every message in allMessages, must name the
// constant pinned for the code it is sent under.
func TestRoundTripCoversEveryRegisteredKind(t *testing.T) {
	codes := map[byte]string{
		1: core.KindLeader, 2: core.KindAccuse, 3: alltoall.KindAlive, 4: source.KindAlive,
		18: rsm.KindRequest, 19: rsm.KindPrepare, 20: rsm.KindPromise, 21: rsm.KindNack,
		22: rsm.KindAccept, 23: rsm.KindAccepted, 24: rsm.KindDecide, 25: rsm.KindLearn,
		26: core.KindRebuff, 27: rsm.KindLeaseGrant, 28: rsm.KindLeaseAck, 29: rsm.KindReadReq,
		30: rsm.KindReadReply, 32: tracing.KindTrace,
	}
	c := NewCodec()
	registered := 0
	for _, e := range c.byCode {
		if e != nil {
			registered++
		}
	}
	if registered != len(codes) {
		t.Fatalf("%d kinds registered, %d pinned: pin a new kind's code here", registered, len(codes))
	}
	for code, kind := range codes {
		if e := c.byCode[code]; e == nil || e.kind != kind || c.byKind[obs.Intern(kind)] != e {
			t.Errorf("code %d: %+v, want %s", code, e, kind)
		}
	}
	for _, code := range []byte{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31} {
		if _, err := c.Unmarshal([]byte{verVarintByte, code}); !errors.Is(err, ErrUnknownCode) {
			t.Errorf("retired code %d: err = %v, want ErrUnknownCode", code, err)
		}
	}
	covered := map[string]bool{}
	for _, m := range allMessages() {
		b, err := c.Marshal(m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		name := obs.KindName(m.KindID())
		if name != codes[b[1]] {
			t.Errorf("%T names %s, sent under code %d, which is %s", m, name, b[1], codes[b[1]])
		}
		covered[name] = true
	}
	for _, kind := range codes {
		if !covered[kind] {
			t.Errorf("allMessages has no %s", kind)
		}
	}
}

func TestQuickRoundTripScalars(t *testing.T) {
	c := NewCodec()
	property := func(epoch uint64, b uint64, inst uint32, v string) bool {
		m1 := core.LeaderMsg{Epoch: epoch}
		r1, err := c.Marshal(m1)
		if err != nil {
			return false
		}
		got1, err := c.Unmarshal(r1)
		if err != nil || got1 != m1 {
			return false
		}
		m2 := &rsm.AcceptMsg{B: consensus.Ballot(b), Inst: int(inst), V: consensus.Value(v)}
		r2, err := c.Marshal(m2)
		if err != nil {
			return false
		}
		got2, err := c.Unmarshal(r2)
		return err == nil && reflect.DeepEqual(got2, m2) // == would compare the boxes
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRoundTripVectors(t *testing.T) {
	c := NewCodec()
	property := func(counters []uint64) bool {
		m := source.AliveMsg{Counters: counters}
		b, err := c.Marshal(m)
		if err != nil {
			return false
		}
		got, err := c.Unmarshal(b)
		if err != nil {
			return false
		}
		out, ok := got.(source.AliveMsg)
		if !ok || len(out.Counters) != len(counters) {
			return false
		}
		for i := range counters {
			if out.Counters[i] != counters[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalErrors sweeps a failure across every field of every kind,
// through Unmarshal and through a connection decoder: each proper prefix of
// a frame fails or is itself the canonical frame of what it decodes to (a
// READR without More is a prefix of one with it), and each frame with a
// byte appended fails.
func TestUnmarshalErrors(t *testing.T) {
	c := NewCodec()
	if _, err := c.Unmarshal(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := c.Unmarshal([]byte{verVarintByte, 0xEF}); err == nil {
		t.Fatal("unknown code accepted")
	}
	cd := c.NewConnDecoder()
	for _, p := range []struct {
		name    string
		marshal func(node.Message) ([]byte, error)
		decode  func([]byte) (node.Message, error)
	}{
		{"Unmarshal", c.Marshal, c.Unmarshal},
		{"connection decoder",
			func(m node.Message) ([]byte, error) { return c.MarshalEnvelope(7, m) },
			func(b []byte) (node.Message, error) { env, err := cd.UnmarshalEnvelope(b); return env.Msg, err }},
	} {
		for _, m := range allMessages() {
			frame, err := p.marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut < len(frame); cut++ {
				got, err := p.decode(frame[:cut])
				if err != nil {
					if got != nil {
						t.Errorf("%s: %T cut at %d: error %v with message %+v", p.name, m, cut, err, got)
					}
					continue
				}
				if canon, err := p.marshal(got); err != nil || !bytes.Equal(canon, frame[:cut]) {
					t.Errorf("%s: %T cut at %d decoded as %+v, whose frame is % x (%v)", p.name, m, cut, got, canon, err)
				}
			}
			if got, err := p.decode(append(frame, 0)); err == nil {
				t.Errorf("%s: %T with a trailing byte decoded as %+v", p.name, m, got)
			}
		}
	}
}

// TestFrameLimit: one limit, MaxFrame, on both sides. A frame of exactly
// MaxFrame bytes encodes and decodes; one a byte longer is refused by the
// encoder and, built by hand, by the decoder.
func TestFrameLimit(t *testing.T) {
	c := NewCodec()
	fits := &rsm.RequestMsg{V: consensus.Value(strings.Repeat("v", MaxFrame-5))} // marker, code, 3-byte length
	frame, err := c.Marshal(fits)
	if err != nil || len(frame) != MaxFrame {
		t.Fatalf("%d-byte frame, %v; want %d bytes", len(frame), err, MaxFrame)
	}
	if got, err := c.Unmarshal(frame); err != nil || *got.(*rsm.RequestMsg) != *fits {
		t.Fatalf("a frame of MaxFrame bytes decoded as %.20v, %v", got, err)
	}
	over := rsm.RequestMsg{V: fits.V + "v"}
	if _, err := c.Marshal(over); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("a frame one byte over: err = %v, want ErrTooLarge", err)
	}
	long := append(binary.AppendUvarint(frame[:2:2], uint64(len(over.V))), over.V...)
	if _, err := c.Unmarshal(long); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("a hand-built frame one byte over: err = %v, want ErrTooLarge", err)
	}
}

// TestMaxValueFitsAFrame: rsm closes a batch at rsm.MaxValue bytes so that
// the ACCEPT carrying it is a frame. With a value of that size and every
// other field at its widest, inside the trace wrapper and a socket
// envelope, it fits MaxFrame, with under 256 bytes to spare.
func TestMaxValueFitsAFrame(t *testing.T) {
	const wide, widest = 1 << 62, ^uint64(0) // the largest Int and U64
	accept := &rsm.AcceptMsg{B: consensus.Ballot(widest), Inst: wide, V: consensus.Value(strings.Repeat("v", rsm.MaxValue)),
		CommitUpTo: wide, MinDone: wide, LeaseSeq: widest, Repliers: widest}
	traced := tracing.Wrap{Ctx: tracing.Context{Trace: tracing.TraceID(widest), Span: tracing.SpanID(widest)}, Inner: accept}
	frame, err := NewCodec().MarshalEnvelope(-1, traced)
	if spare := MaxFrame - len(frame); err != nil || spare < 0 || spare >= 256 {
		t.Fatalf("the widest ACCEPT of rsm.MaxValue = %d bytes is a %d-byte frame (%v), want one within 256 bytes under MaxFrame = %d",
			rsm.MaxValue, len(frame), err, MaxFrame)
	}
}

func TestFuzzUnmarshalNeverPanics(t *testing.T) {
	c := NewCodec()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		if len(b) > 0 && i%2 == 0 {
			b[0] = verVarintByte // past the marker check, into the fields
		}
		_, _ = c.Unmarshal(b) // must not panic or over-allocate
	}
}

func TestMarshalUnknownKind(t *testing.T) {
	c := NewCodec()
	if _, err := c.Marshal(weirdMsg{}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

type weirdMsg struct{}

func (weirdMsg) KindID() obs.Kind { return obs.Intern("WEIRD") }

func TestDuplicateRegistrationPanics(t *testing.T) {
	c := NewEmptyCodec()
	enc := func(*Encoder, node.Message) {}
	dec := func(*Decoder) node.Message { return weirdMsg{} }
	c.Register(1, obs.Intern("A"), enc, dec)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate code accepted")
		}
	}()
	c.Register(1, obs.Intern("B"), enc, dec)
}

func TestEnvelopeRoundTrip(t *testing.T) {
	c := NewCodec()
	b, err := c.MarshalEnvelope(3, core.LeaderMsg{Epoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	env, err := c.UnmarshalEnvelope(b)
	if err != nil {
		t.Fatal(err)
	}
	if env.From != 3 {
		t.Fatalf("From = %v", env.From)
	}
	if m, ok := env.Msg.(core.LeaderMsg); !ok || m.Epoch != 8 {
		t.Fatalf("Msg = %+v", env.Msg)
	}
	if _, err := c.UnmarshalEnvelope([]byte{1, 2}); err == nil {
		t.Fatal("short envelope accepted")
	}
}

func TestNegativeIntRejected(t *testing.T) {
	var e Encoder
	if e.Int(-1); e.err == nil {
		t.Fatal("negative int encoded")
	}
}
