package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/node"
)

// TestHostileLengthPrefixAllocatesNothing: a vector's length prefix is
// checked against the bytes that remain before anything is allocated by
// it. These two envelopes — seven and six bytes, on TCP a frame from anyone
// who can connect — used to cost 32 MiB and 8 MiB before failing as
// truncated.
func TestHostileLengthPrefixAllocatesNothing(t *testing.T) {
	c := NewCodec()
	million := []byte{0x80, 0x80, 0x40} // uvarint(1<<20), a count as large as MaxFrame
	for name, frame := range map[string][]byte{
		"RSM-PROMISE": append([]byte{verVarintByte, 1, 20, 5}, million...),
		"ALIVE-V":     append([]byte{verVarintByte, 1, 4}, million...),
	} {
		_, _ = c.UnmarshalEnvelope(frame) // first use fills the decoder pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.UnmarshalEnvelope(frame)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<10 {
			t.Errorf("%s: a %d-byte envelope allocated %d bytes before it was refused", name, len(frame), got)
		}
	}
}

// TestConnDecoderArenaIntegrity: a string a connection decoder handed out
// is never written again — not by the caller reusing its read buffer, and
// not by the 10⁴ values (a dozen chunk turnovers) decoded after it. It
// fails if a message aliases the input or a full chunk is rewound.
func TestConnDecoderArenaIntegrity(t *testing.T) {
	const frames = 10_000
	c := NewCodec()
	cd := c.NewConnDecoder()
	value := func(i int) consensus.Value {
		return consensus.Value(fmt.Sprintf("%06d-%s", i, strings.Repeat(string(rune('a'+i%26)), 90)))
	}
	buf := make([]byte, 0, 256) // the read buffer, reused for every frame
	kept := make([]node.Message, frames)
	for i := range kept {
		var err error
		if buf, err = c.MarshalEnvelopeAppend(buf[:0], 1, &rsm.RequestMsg{V: value(i)}); err != nil {
			t.Fatal(err)
		}
		env, err := cd.UnmarshalEnvelope(buf)
		if err != nil {
			t.Fatal(err)
		}
		kept[i] = env.Msg
		for j := range buf {
			buf[j] = 0xAA
		}
	}
	if turnovers := frames * len(value(0)) / (64 << 10); turnovers < 10 { // node.Arena's chunk
		t.Fatalf("only %d chunk turnovers: the test no longer exercises them", turnovers)
	}
	for i, m := range kept {
		if got := m.(*rsm.RequestMsg).V; got != value(i) {
			t.Fatalf("value %d read back as %q after %d later decodes", i, got, frames-1-i)
		}
	}
}

// TestConnDecoderSlabIntegrity: an ACCEPT a connection decoder handed out
// still holds its fields after 100 more on the same connection — three
// slab chunks' worth, decoded from a read buffer overwritten each time —
// and no two share a box.
func TestConnDecoderSlabIntegrity(t *testing.T) {
	c := NewCodec()
	cd := c.NewConnDecoder()
	accept := func(i int) *rsm.AcceptMsg {
		return &rsm.AcceptMsg{B: 7, Inst: i, V: consensus.Value(fmt.Sprint("value-", i)), CommitUpTo: i, MinDone: i / 2, LeaseSeq: uint64(i)}
	}
	buf := make([]byte, 0, 64) // the read buffer, reused for every frame
	boxes := map[*rsm.AcceptMsg]int{}
	var first *rsm.AcceptMsg
	for i := 0; i <= 100; i++ {
		var err error
		if buf, err = c.MarshalEnvelopeAppend(buf[:0], 1, accept(i)); err != nil {
			t.Fatal(err)
		}
		env, err := cd.UnmarshalEnvelope(buf)
		if err != nil {
			t.Fatal(err)
		}
		m := env.Msg.(*rsm.AcceptMsg)
		if j, dup := boxes[m]; dup {
			t.Fatalf("frame %d decoded into the box of frame %d", i, j)
		}
		boxes[m] = i
		if i == 0 {
			first = m
		}
		for j := range buf {
			buf[j] = 0xAA
		}
	}
	if *first != *accept(0) {
		t.Fatalf("the first ACCEPT reads %+v after 100 more frames, want %+v", *first, *accept(0))
	}
}

// valueFrame is a frame of the per-operation path with what it costs
// through each decode path: a box, which a connection's slab amortises to
// nothing, and through the shared path one more object for each string.
type valueFrame struct {
	frame  []byte
	allocs [2]float64 // through decodePaths' conn and shared decoder
}

// valueFrames are the frames of the per-operation path: a client's command
// on its way to the leader, a batch on its way to a follower, the vote that
// answers it, and a lease read's request and its reply, alone and packed.
func valueFrames(t testing.TB, c *Codec) map[string]valueFrame {
	out := map[string]valueFrame{}
	for name, f := range map[string]struct {
		m      node.Message
		allocs [2]float64
	}{
		"REQ-64B":     {&rsm.RequestMsg{V: consensus.Value(strings.Repeat("r", 64))}, [2]float64{0, 2}},
		"ACCEPT-700B": {&rsm.AcceptMsg{B: 5, Inst: 900, V: consensus.Value(strings.Repeat("a", 700)), CommitUpTo: 899, LeaseSeq: 3}, [2]float64{0, 2}},
		"ACCEPTED":    {&rsm.AcceptedMsg{B: 5, Inst: 900, Done: 899, LeaseSeq: 3}, [2]float64{0, 1}},
		"READ":        {&rsm.ReadReqMsg{Seq: 1 << 20, Count: 1, Origin: 2}, [2]float64{0, 1}},
		"READR":       {&rsm.ReadReplyMsg{Seq: 1 << 20, Count: 1, Index: 1 << 20, Local: true}, [2]float64{0, 1}},
		"READR-21":    {readReply(21), [2]float64{0, 2}},
	} {
		frame, err := c.MarshalEnvelope(1, f.m)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = valueFrame{frame, f.allocs}
	}
	return out
}

// decodePath is one of the two ways to decode an envelope.
type decodePath struct {
	name   string
	decode func([]byte) (Envelope, error)
}

func decodePaths(c *Codec) []decodePath {
	return []decodePath{{"conn", c.NewConnDecoder().UnmarshalEnvelope}, {"shared", c.UnmarshalEnvelope}}
}

// TestConnDecoderValueAllocs is the decode guard for the per-operation path
// (the heartbeat guards' LeaderMsg{Epoch: 5} boxes for free): through a
// connection decoder a string costs, amortised, nothing, and so does the box
// of every kind a command or a read sends.
func TestConnDecoderValueAllocs(t *testing.T) {
	c := NewCodec()
	for name, f := range valueFrames(t, c) {
		for i, p := range decodePaths(c) {
			got := testing.AllocsPerRun(1000, func() {
				if env, err := p.decode(f.frame); err != nil || env.From != 1 {
					t.Fatal("decode failed")
				}
			})
			if got != f.allocs[i] {
				t.Errorf("%s through the %s decoder: %v allocs/op, want %v", name, p.name, got, f.allocs[i])
			}
		}
	}
}

// BenchmarkConnDecode is what a socket's read loop pays per frame of the
// per-operation path, against the shared UnmarshalEnvelope the loops called before
// they owned a decoder.
func BenchmarkConnDecode(b *testing.B) {
	c := NewCodec()
	for name, f := range valueFrames(b, c) {
		for _, p := range decodePaths(c) {
			b.Run(name+"/"+p.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if env, err := p.decode(f.frame); err != nil || env.From != 1 {
						b.Fatal("decode failed")
					}
				}
			})
		}
	}
}

// checkConnDecode is the fuzz property of the connection decoder: it
// accepts exactly what the shared path accepts and yields the same message,
// twice over, and scribbling over the input afterwards changes neither.
func checkConnDecode(t *testing.T, cd *ConnDecoder, b []byte, want Envelope, wantErr error) {
	t.Helper()
	var got [2]Envelope
	for i := range got {
		in := bytes.Clone(b)
		env, err := cd.UnmarshalEnvelope(in)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("connection decoder: err = %v, shared decoder: %v", err, wantErr)
		}
		got[i] = env
		for j := range in {
			in[j] ^= 0xFF
		}
	}
	for i, env := range got {
		if env.From != want.From || !reflect.DeepEqual(env.Msg, want.Msg) {
			t.Fatalf("connection decode %d yielded %+v, shared decode %+v", i, env, want)
		}
	}
}
