package wire

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/consensus"
	"repro/internal/consensus/group"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestGroupVarintWireFrozen pins the varint layout the same way: marker,
// varint sender, GROUP code, varint group id, inner code, inner fields.
func TestGroupVarintWireFrozen(t *testing.T) {
	c := NewCodec()
	b, err := c.MarshalEnvelope(7, group.Msg{Group: 3, Inner: core.LeaderMsg{Epoch: 5}})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		verVarintByte,
		7, // sender id, uvarint
		31,
		3, // group id, uvarint
		1,
		5, // epoch, uvarint
	}
	if !reflect.DeepEqual(b, want) {
		t.Fatalf("varint group envelope = % x, want % x", b, want)
	}
}

// TestGroupRoundTrip exercises the wrapper around a spread of inner kinds
// and group ids.
func TestGroupRoundTrip(t *testing.T) {
	c := NewCodec()
	msgs := []group.Msg{
		{Group: 0, Inner: &rsm.RequestMsg{V: "k=v"}},
		{Group: 1, Inner: rsm.PrepareMsg{B: 12}},
		{Group: 7, Inner: &rsm.AcceptMsg{B: 2, Inst: 40, V: "x", CommitUpTo: 39, MinDone: 12, LeaseSeq: 4}},
		{Group: 300, Inner: &rsm.DecideMsg{Inst: 9, V: consensus.Value(strings.Repeat("v", 100))}},
		{Group: 2, Inner: core.LeaderMsg{Epoch: 8}},
		{Group: 3, Inner: rsm.PromiseMsg{B: 9, Entries: []rsm.PromEntry{{Inst: 1, AccB: 2, AccV: "a"}}}},
	}
	for _, m := range msgs {
		if got := roundTrip(t, c, m); !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip changed value: %+v → %+v", m, got)
		}
	}
}

// TestGroupNestRejected proves the one-level bound in both directions: a
// wrapper inside a wrapper fails to encode, and a hand-crafted nested frame
// fails to decode — so decoder recursion depth is bounded by construction,
// not by a counter.
func TestGroupNestRejected(t *testing.T) {
	c := NewCodec()
	nested := group.Msg{Group: 1, Inner: group.Msg{Group: 2, Inner: rsm.RequestMsg{V: "x"}}}
	if _, err := c.Marshal(nested); err == nil {
		t.Fatal("nested group wrapper encoded")
	}
	// GROUP, group id 1, then GROUP again.
	frame := []byte{verVarintByte, 31, 1, 31}
	if _, err := c.Unmarshal(frame); err == nil {
		t.Fatal("nested group frame decoded")
	}
}

// TestGroupEncodeRejects covers the remaining encoder guards: nil inner
// message and an inner kind the codec has never heard of.
func TestGroupEncodeRejects(t *testing.T) {
	c := NewCodec()
	if _, err := c.Marshal(group.Msg{Group: 1}); err == nil {
		t.Fatal("nil inner message encoded")
	}
	if _, err := c.Marshal(group.Msg{Group: 1, Inner: unknownMsg{}}); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown inner kind: err = %v, want ErrUnknownKind", err)
	}
	if _, err := c.Marshal(group.Msg{Group: -1, Inner: rsm.RequestMsg{V: "x"}}); err == nil {
		t.Fatal("negative group id encoded")
	}
}

type unknownMsg struct{}

func (unknownMsg) KindID() obs.Kind { return obs.Intern("UNKNOWN-TEST-KIND") }

// TestGroupDecodeRejects covers the decoder guards: a frame that ends right
// after the group id, and an inner code the codec does not know.
func TestGroupDecodeRejects(t *testing.T) {
	c := NewCodec()
	truncated := []byte{verVarintByte, 31, 1}
	if _, err := c.Unmarshal(truncated); !errors.Is(err, ErrTruncated) {
		t.Fatalf("frame ending after group id: err = %v, want ErrTruncated", err)
	}
	unknown := []byte{verVarintByte, 31, 1, 0xEF}
	if _, err := c.Unmarshal(unknown); !errors.Is(err, ErrUnknownCode) {
		t.Fatalf("unknown inner code: err = %v, want ErrUnknownCode", err)
	}
}

// TestGroupStrictTrailing confirms the top-level strict-decode contract
// still holds through the wrapper: a canonical group frame with one byte
// appended is rejected, which is what makes the kind a clean wire break for
// pre-group peers (they fail decoding, not misinterpret).
func TestGroupStrictTrailing(t *testing.T) {
	c := NewCodec()
	b, err := c.Marshal(group.Msg{Group: 2, Inner: &rsm.DecideMsg{Inst: 4, V: consensus.Value("v")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Unmarshal(append(b, 0)); err == nil {
		t.Fatal("group frame with trailing byte accepted")
	}
	if _, err := c.Unmarshal(b[:len(b)-1]); err == nil {
		t.Fatal("group frame truncated by one byte accepted")
	}
}
