package wire

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/obs"
)

func TestRegisterRefusesMarkerBand(t *testing.T) {
	c := NewEmptyCodec()
	defer func() {
		if recover() == nil {
			t.Fatal("code in the frame-marker band accepted")
		}
	}()
	c.Register(codeLimit, obs.Intern("BAD"),
		func(*Encoder, node.Message) {},
		func(*Decoder) node.Message { return nil })
}

// TestRSMDecideWireFrozen pins both forms of RSM-DECIDE. The leading
// ballot tells them apart: non-zero is the commit index and the frame ends
// after the instance — no value, not even a length — and zero is the
// by-value repair reply. The ballot was prepended in PR 13, a
// deliberate, un-negotiated break with the (Inst, V) layout before it.
func TestRSMDecideWireFrozen(t *testing.T) {
	for _, tc := range []struct {
		name  string
		c     *Codec
		m     *rsm.DecideMsg
		frame []byte
	}{
		{"varint commit", NewCodec(), &rsm.DecideMsg{B: 6, Inst: 300}, []byte{
			verVarintByte,
			7, // sender id, uvarint
			24,
			6,          // ballot
			0xAC, 0x02, // commit index 300
		}},
		{"varint value", NewCodec(), &rsm.DecideMsg{Inst: 3, V: "ab"}, []byte{
			verVarintByte,
			7,
			24,
			0, // NoBallot: by value
			3, // instance
			2, 'a', 'b',
		}},
	} {
		b, err := tc.c.MarshalEnvelope(7, tc.m)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(b, tc.frame) {
			t.Fatalf("%s envelope = % x, want % x", tc.name, b, tc.frame)
		}
		env, err := tc.c.UnmarshalEnvelope(tc.frame)
		if err != nil || !reflect.DeepEqual(env.Msg, node.Message(tc.m)) {
			t.Fatalf("%s decoded %+v, %v", tc.name, env.Msg, err)
		}
	}
	// A commit index is value-free by construction, not by convention.
	if _, err := NewCodec().Marshal(&rsm.DecideMsg{B: 6, Inst: 3, V: "ab"}); err == nil {
		t.Fatal("a commit index carrying a value was encoded")
	}
}

// TestRSMPromiseWireFrozen pins RSM-PROMISE. The layout is what it has
// always been, a ballot and a counted list of (instance, ballot, value): a
// promise of votes alone is byte for byte the frame older builds sent and
// still decodes. What a promiser has decided — its prefix first,
// then any instance above it — rides in the same entries under NoBallot, so
// a frame that reports them is one any build decodes.
func TestRSMPromiseWireFrozen(t *testing.T) {
	votes := rsm.PromiseMsg{B: 9, Entries: []rsm.PromEntry{{Inst: 5, AccB: 2, AccV: "ab"}}}
	decided := rsm.PromiseMsg{B: 9, Entries: []rsm.PromEntry{{Inst: 300}, {Inst: 300, AccB: 2, AccV: "ab"}, {Inst: 302, AccV: "c"}}}
	for _, tc := range []struct {
		name  string
		c     *Codec
		m     rsm.PromiseMsg
		frame []byte
	}{
		{"varint votes", NewCodec(), votes, []byte{
			verVarintByte,
			7, // sender id, uvarint
			20,
			9, // ballot
			1, // entries
			5, 2, 2, 'a', 'b',
		}},
		{"varint decided", NewCodec(), decided, []byte{
			verVarintByte,
			7,
			20,
			9,
			3,
			0xAC, 0x02, 0, 0, // NoBallot first: everything below 300 is decided here
			0xAC, 0x02, 2, 2, 'a', 'b', // a vote in 300
			0xAE, 0x02, 0, 1, 'c', // NoBallot again: 302 is decided, with "c"
		}},
	} {
		b, err := tc.c.MarshalEnvelope(7, tc.m)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(b, tc.frame) {
			t.Fatalf("%s envelope = % x, want % x", tc.name, b, tc.frame)
		}
		env, err := tc.c.UnmarshalEnvelope(tc.frame)
		if err != nil || !reflect.DeepEqual(env.Msg, node.Message(tc.m)) {
			t.Fatalf("%s decoded %+v, %v", tc.name, env.Msg, err)
		}
	}
}

// TestSteadyStateEncodeAllocs pins the allocation-free encode path: with a
// reused destination buffer, marshaling a heartbeat envelope performs no
// allocations.
func TestSteadyStateEncodeAllocs(t *testing.T) {
	c := NewCodec()
	buf := make([]byte, 0, 64)
	msg := core.LeaderMsg{Epoch: 5}
	allocs := testing.AllocsPerRun(1000, func() {
		b, err := c.MarshalEnvelopeAppend(buf[:0], 1, msg)
		if err != nil || len(b) == 0 {
			t.Fatal("marshal failed")
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs/op encoding a heartbeat envelope, want 0", allocs)
	}
}

// TestSteadyStateDecodeAllocs pins the receive-loop half: decoding a
// heartbeat envelope is allocation-free. The pooled Decoder supplies the
// scratch state, and boxing the small pointer-free LeaderMsg into the
// node.Message interface hits the runtime's static box cache.
func TestSteadyStateDecodeAllocs(t *testing.T) {
	c := NewCodec()
	frame, err := c.MarshalEnvelope(1, core.LeaderMsg{Epoch: 5})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		env, err := c.UnmarshalEnvelope(frame)
		if err != nil || env.From != 1 {
			t.Fatal("decode failed")
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs/op decoding a heartbeat envelope, want 0", allocs)
	}
}

// TestRSMReadReplyWireFrozen pins RSM-READR. A reply to one request is
// byte for byte what it was before a reply could answer several: the frame
// ends after Local. Further requests travel behind it in one
// length-prefixed string that rsm packs; an empty one is not a frame.
func TestRSMReadReplyWireFrozen(t *testing.T) {
	one := &rsm.ReadReplyMsg{Seq: 41, Count: 16, Index: 99, Local: true}
	three := &rsm.ReadReplyMsg{Seq: 41, Count: 16, Index: 99, Local: true, More: "\x10\x01\x01\x02"}
	for _, tc := range []struct {
		name  string
		c     *Codec
		m     *rsm.ReadReplyMsg
		frame []byte
	}{
		{"varint, one request", NewCodec(), one, []byte{
			verVarintByte,
			7, // sender id, uvarint
			30,
			41, 16, 99, 1,
		}},
		{"varint, three requests", NewCodec(), three, []byte{
			verVarintByte,
			7,
			30,
			41, 16, 99, 1,
			4, 16, 1, 1, 2,
		}},
	} {
		b, err := tc.c.MarshalEnvelope(7, tc.m)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(b, tc.frame) {
			t.Fatalf("%s envelope = % x, want % x", tc.name, b, tc.frame)
		}
		env, err := tc.c.UnmarshalEnvelope(tc.frame)
		if err != nil || !reflect.DeepEqual(env.Msg, tc.m) {
			t.Fatalf("%s decoded %+v, %v", tc.name, env.Msg, err)
		}
	}
	frame := []byte{verVarintByte, 7, 30, 41, 16, 99, 1, 0}
	if env, err := NewCodec().UnmarshalEnvelope(frame); err == nil {
		t.Fatalf("a reply with an empty tail decoded as %+v: two frames for one message", env.Msg)
	}
}

// TestUnmarkedFrameRefused: every frame opens with the marker byte. One
// that does not — a fixed-width frame as earlier builds wrote them, or a
// live frame with its marker cut off — is an error on every decode path:
// never a message, never a panic.
func TestUnmarkedFrameRefused(t *testing.T) {
	c := NewCodec()
	live, err := c.MarshalEnvelope(7, &rsm.DecideMsg{Inst: 3, V: "ab"})
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string][]byte{
		// A fixed-width heartbeat message: type code, big-endian epoch.
		"fixed heartbeat": {1, 0, 0, 0, 0, 0, 0, 0, 5},
		// The same in an envelope from p7: big-endian sender id first.
		"fixed heartbeat envelope": {0, 0, 0, 7, 1, 0, 0, 0, 0, 0, 0, 1, 2},
		"fixed DECIDE envelope": {
			0, 0, 0, 7, 24,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 2, 'a', 'b',
		},
		"live envelope without its marker": live[1:],
	} {
		if m, err := c.Unmarshal(frame); !errors.Is(err, ErrUnmarked) || m != nil {
			t.Errorf("%s through Unmarshal: %+v, %v; want ErrUnmarked", name, m, err)
		}
		for _, p := range decodePaths(c) {
			if env, err := p.decode(frame); !errors.Is(err, ErrUnmarked) || env.Msg != nil {
				t.Errorf("%s through the %s decoder: %+v, %v; want ErrUnmarked", name, p.name, env, err)
			}
		}
	}
}
