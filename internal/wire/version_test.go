package wire

import (
	"reflect"
	"testing"

	"repro/internal/consensus/group"
	"repro/internal/consensus/rsm"
	"repro/internal/consensus/synod"
	"repro/internal/core"
	"repro/internal/detector/alltoall"
	"repro/internal/detector/source"
	"repro/internal/node"
)

// versionSampleMsgs mirrors the full registry: one representative value per
// registered kind, with realistic small field values (steady-state epochs
// and ballots are small integers — the case varint encoding exists for).
func versionSampleMsgs() []node.Message {
	return []node.Message{
		core.LeaderMsg{Epoch: 3},
		core.AccuseMsg{Epoch: 4},
		core.RebuffMsg{Epoch: 4},
		alltoall.AliveMsg{},
		source.AliveMsg{Counters: []uint64{17, 0, 254}},
		synod.PrepareMsg{B: 12},
		synod.PromiseMsg{B: 12, AccB: 5, AccV: "v"},
		synod.AcceptMsg{B: 12, V: "value"},
		rsm.PromiseMsg{B: 9, Entries: []rsm.PromEntry{{Inst: 1, AccB: 2, AccV: "a"}}},
		rsm.AcceptMsg{B: 9, Inst: 4, V: "x", CommitUpTo: 3, MinDone: 2},
		group.Msg{Group: 2, Inner: rsm.AcceptMsg{B: 9, Inst: 4, V: "x", CommitUpTo: 3, MinDone: 2}},
		group.Msg{Group: 0, Inner: rsm.RequestMsg{V: "cmd"}},
	}
}

// TestCrossVersionDecode proves the compatibility contract: frames encoded
// under either version decode identically on any codec, because decode
// dispatches on the frame's first byte, not on the codec's encode mode.
func TestCrossVersionDecode(t *testing.T) {
	fixed := NewCodec()
	fixed.SetEncodeVersion(VersionFixed)
	varint := NewCodec() // VersionVarint by default

	for _, m := range versionSampleMsgs() {
		for name, producer := range map[string]*Codec{"fixed": fixed, "varint": varint} {
			b, err := producer.Marshal(m)
			if err != nil {
				t.Fatalf("%s Marshal(%T): %v", name, m, err)
			}
			for consumerName, consumer := range map[string]*Codec{"fixed": fixed, "varint": varint} {
				got, err := consumer.Unmarshal(b)
				if err != nil {
					t.Fatalf("%s frame on %s codec (%T): %v", name, consumerName, m, err)
				}
				if !reflect.DeepEqual(got, m) {
					t.Fatalf("%s→%s changed %T: %+v → %+v", name, consumerName, m, m, got)
				}
			}
		}

		env, err := fixed.MarshalEnvelope(2, m)
		if err != nil {
			t.Fatal(err)
		}
		out, err := varint.UnmarshalEnvelope(env)
		if err != nil {
			t.Fatalf("fixed envelope on varint codec (%T): %v", m, err)
		}
		if out.From != 2 || !reflect.DeepEqual(out.Msg, m) {
			t.Fatalf("fixed envelope changed %T: %+v", m, out)
		}
	}
}

// TestVarintEnvelopeStrictlySmaller pins the size win the varint encoding
// exists for: for every registered kind with realistic field values, the
// varint envelope is strictly smaller than the fixed one. (The 4-byte
// sender header shrinking to marker + 1-byte varint already nets 2 bytes
// even for field-free messages.)
func TestVarintEnvelopeStrictlySmaller(t *testing.T) {
	fixed := NewCodec()
	fixed.SetEncodeVersion(VersionFixed)
	varint := NewCodec()

	for _, m := range versionSampleMsgs() {
		fb, err := fixed.MarshalEnvelope(1, m)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := varint.MarshalEnvelope(1, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(vb) >= len(fb) {
			t.Errorf("%T: varint envelope %d bytes, fixed %d — varint must be strictly smaller",
				m, len(vb), len(fb))
		}
	}
}

func TestEncodeVersionSelect(t *testing.T) {
	c := NewCodec()
	if v := c.EncodeVersion(); v != VersionVarint {
		t.Fatalf("default version = %d, want VersionVarint", v)
	}
	c.SetEncodeVersion(VersionFixed)
	if v := c.EncodeVersion(); v != VersionFixed {
		t.Fatalf("version after SetEncodeVersion(VersionFixed) = %d", v)
	}
	b, err := c.Marshal(core.LeaderMsg{Epoch: 42})
	if err != nil {
		t.Fatal(err)
	}
	// A fixed frame starts with the type code and carries an 8-byte epoch.
	if len(b) != 9 || b[0] >= codeLimit {
		t.Fatalf("fixed frame = % x, want 1-byte code + 8-byte epoch", b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown version accepted")
		}
	}()
	c.SetEncodeVersion(Version(99))
}

func TestRegisterRefusesMarkerBand(t *testing.T) {
	c := NewEmptyCodec()
	defer func() {
		if recover() == nil {
			t.Fatal("code in the version-marker band accepted")
		}
	}()
	c.Register(codeLimit, "BAD",
		func(*Encoder, node.Message) error { return nil },
		func(*Decoder) (node.Message, error) { return nil, nil })
}

// TestFixedWireFormatFrozen pins exact fixed-encoding bytes: old frames on
// disk or in flight must decode forever, so the fixed layout can never
// drift.
func TestFixedWireFormatFrozen(t *testing.T) {
	c := NewCodec()
	c.SetEncodeVersion(VersionFixed)
	b, err := c.MarshalEnvelope(7, core.LeaderMsg{Epoch: 0x0102})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0, 0, 0, 7, // sender id, big-endian u32
		codeCoreLeader,
		0, 0, 0, 0, 0, 0, 1, 2, // epoch, big-endian u64
	}
	if !reflect.DeepEqual(b, want) {
		t.Fatalf("fixed envelope = % x, want % x", b, want)
	}
}

// TestRSMDecideWireFrozen pins both forms of RSM-DECIDE in both versions.
// The leading ballot tells them apart: non-zero is the commit index and
// the frame ends after the instance — no value, not even a length — and
// zero is the by-value repair reply. The ballot was prepended in PR 13, a
// deliberate, un-negotiated break with the (Inst, V) layout before it.
func TestRSMDecideWireFrozen(t *testing.T) {
	fixed := NewCodec()
	fixed.SetEncodeVersion(VersionFixed)
	for _, tc := range []struct {
		name  string
		c     *Codec
		m     rsm.DecideMsg
		frame []byte
	}{
		{"fixed commit", fixed, rsm.DecideMsg{B: 6, Inst: 0x0102}, []byte{
			0, 0, 0, 7, // sender id, big-endian u32
			codeRSMDecide,
			0, 0, 0, 0, 0, 0, 0, 6, // ballot, big-endian u64
			0, 0, 0, 0, 0, 0, 1, 2, // commit index, big-endian u64
		}},
		{"fixed value", fixed, rsm.DecideMsg{Inst: 3, V: "ab"}, []byte{
			0, 0, 0, 7,
			codeRSMDecide,
			0, 0, 0, 0, 0, 0, 0, 0, // NoBallot: by value
			0, 0, 0, 0, 0, 0, 0, 3, // instance
			0, 0, 0, 2, 'a', 'b', // value, length-prefixed
		}},
		{"varint commit", NewCodec(), rsm.DecideMsg{B: 6, Inst: 300}, []byte{
			verVarintByte,
			7, // sender id, uvarint
			codeRSMDecide,
			6,          // ballot
			0xAC, 0x02, // commit index 300
		}},
		{"varint value", NewCodec(), rsm.DecideMsg{Inst: 3, V: "ab"}, []byte{
			verVarintByte,
			7,
			codeRSMDecide,
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
		if err != nil || env.Msg != node.Message(tc.m) {
			t.Fatalf("%s decoded %+v, %v", tc.name, env.Msg, err)
		}
	}
	// A commit index is value-free by construction, not by convention.
	if _, err := NewCodec().Marshal(rsm.DecideMsg{B: 6, Inst: 3, V: "ab"}); err == nil {
		t.Fatal("a commit index carrying a value was encoded")
	}
}

// TestRSMPromiseWireFrozen pins RSM-PROMISE in both versions. The layout is
// what it has always been, a ballot and a counted list of (instance, ballot,
// value): a promise of votes alone is byte for byte the frame older builds
// sent and still decodes. What a promiser has decided — its prefix first,
// then any instance above it — rides in the same entries under NoBallot, so
// a frame that reports them is one any build decodes.
func TestRSMPromiseWireFrozen(t *testing.T) {
	fixed := NewCodec()
	fixed.SetEncodeVersion(VersionFixed)
	votes := rsm.PromiseMsg{B: 9, Entries: []rsm.PromEntry{{Inst: 5, AccB: 2, AccV: "ab"}}}
	decided := rsm.PromiseMsg{B: 9, Entries: []rsm.PromEntry{{Inst: 300}, {Inst: 300, AccB: 2, AccV: "ab"}, {Inst: 302, AccV: "c"}}}
	for _, tc := range []struct {
		name  string
		c     *Codec
		m     rsm.PromiseMsg
		frame []byte
	}{
		{"fixed votes", fixed, votes, []byte{
			0, 0, 0, 7, // sender id, big-endian u32
			codeRSMPromise,
			0, 0, 0, 0, 0, 0, 0, 9, // ballot, big-endian u64
			0, 0, 0, 1, // entries
			0, 0, 0, 0, 0, 0, 0, 5, // instance
			0, 0, 0, 0, 0, 0, 0, 2, // the ballot voted at
			0, 0, 0, 2, 'a', 'b', // value, length-prefixed
		}},
		{"varint votes", NewCodec(), votes, []byte{
			verVarintByte,
			7, // sender id, uvarint
			codeRSMPromise,
			9, // ballot
			1, // entries
			5, 2, 2, 'a', 'b',
		}},
		{"varint decided", NewCodec(), decided, []byte{
			verVarintByte,
			7,
			codeRSMPromise,
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
// allocations in either version.
func TestSteadyStateEncodeAllocs(t *testing.T) {
	for _, v := range []Version{VersionFixed, VersionVarint} {
		c := NewCodec()
		c.SetEncodeVersion(v)
		buf := make([]byte, 0, 64)
		msg := core.LeaderMsg{Epoch: 5}
		allocs := testing.AllocsPerRun(1000, func() {
			b, err := c.MarshalEnvelopeAppend(buf[:0], 1, msg)
			if err != nil || len(b) == 0 {
				t.Fatal("marshal failed")
			}
		})
		if allocs != 0 {
			t.Errorf("version %d: %v allocs/op encoding a heartbeat envelope, want 0", v, allocs)
		}
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

// TestRSMReadReplyWireFrozen pins RSM-READR in both versions. A reply to
// one request is byte for byte what it was before a reply could answer
// several: the frame ends after Local. Further requests travel behind it in
// one length-prefixed string that rsm packs; an empty one is not a frame.
func TestRSMReadReplyWireFrozen(t *testing.T) {
	fixed := NewCodec()
	fixed.SetEncodeVersion(VersionFixed)
	one := rsm.ReadReplyMsg{Seq: 41, Count: 16, Index: 99, Local: true}
	three := rsm.ReadReplyMsg{Seq: 41, Count: 16, Index: 99, Local: true, More: "\x10\x01\x01\x02"}
	for _, tc := range []struct {
		name  string
		c     *Codec
		m     rsm.ReadReplyMsg
		frame []byte
	}{
		{"fixed, one request", fixed, one, []byte{
			0, 0, 0, 7, // sender id, big-endian u32
			codeRSMReadReply,
			0, 0, 0, 0, 0, 0, 0, 41, // seq
			0, 0, 0, 16, // count
			0, 0, 0, 0, 0, 0, 0, 99, // index
			0, 0, 0, 1, // local
		}},
		{"varint, one request", NewCodec(), one, []byte{
			verVarintByte,
			7, // sender id, uvarint
			codeRSMReadReply,
			41, 16, 99, 1,
		}},
		{"fixed, three requests", fixed, three, []byte{
			0, 0, 0, 7,
			codeRSMReadReply,
			0, 0, 0, 0, 0, 0, 0, 41,
			0, 0, 0, 16,
			0, 0, 0, 0, 0, 0, 0, 99,
			0, 0, 0, 1,
			0, 0, 0, 4, 16, 1, 1, 2, // More: (+16, 1), (+1, 2)
		}},
		{"varint, three requests", NewCodec(), three, []byte{
			verVarintByte,
			7,
			codeRSMReadReply,
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
		if err != nil || env.Msg != node.Message(tc.m) {
			t.Fatalf("%s decoded %+v, %v", tc.name, env.Msg, err)
		}
	}
	for _, frame := range [][]byte{
		{verVarintByte, 7, codeRSMReadReply, 41, 16, 99, 1, 0},
		{0, 0, 0, 7, codeRSMReadReply, 0, 0, 0, 0, 0, 0, 0, 41, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0, 99, 0, 0, 0, 1, 0, 0, 0, 0},
	} {
		if env, err := NewCodec().UnmarshalEnvelope(frame); err == nil {
			t.Fatalf("a reply with an empty tail decoded as %+v: two frames for one message", env.Msg)
		}
	}
}
