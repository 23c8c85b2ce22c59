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
		if buf, err = c.MarshalEnvelopeAppend(buf[:0], 1, rsm.RequestMsg{V: value(i)}); err != nil {
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
	if turnovers := frames * len(value(0)) / arenaChunk; turnovers < 10 {
		t.Fatalf("only %d chunk turnovers: the test no longer exercises them", turnovers)
	}
	for i, m := range kept {
		if got := m.(rsm.RequestMsg).V; got != value(i) {
			t.Fatalf("value %d read back as %q after %d later decodes", i, got, frames-1-i)
		}
	}
}

// valueFrames are the two frames of the write path that carry a value: a
// client's command on its way to the leader and a batch on its way to a
// follower.
func valueFrames(t testing.TB, c *Codec) map[string][]byte {
	out := map[string][]byte{}
	for name, m := range map[string]node.Message{
		"REQ-64B":     rsm.RequestMsg{V: consensus.Value(strings.Repeat("r", 64))},
		"ACCEPT-700B": rsm.AcceptMsg{B: 5, Inst: 900, V: consensus.Value(strings.Repeat("a", 700)), CommitUpTo: 899, LeaseSeq: 3},
	} {
		frame, err := c.MarshalEnvelope(1, m)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = frame
	}
	return out
}

// decodePath is one of the two ways to decode an envelope, with what a
// frame that carries a value costs through it: the message's box, and
// through the shared path one more object for the string.
type decodePath struct {
	name   string
	decode func([]byte) (Envelope, error)
	allocs float64
}

func decodePaths(c *Codec) []decodePath {
	return []decodePath{
		{"conn", c.NewConnDecoder().UnmarshalEnvelope, 1},
		{"shared", c.UnmarshalEnvelope, 2},
	}
}

// TestConnDecoderValueAllocs is the decode guard that carries a value (the
// heartbeat guards' LeaderMsg{Epoch: 5} boxes for free): through a
// connection decoder a string costs, amortised, nothing.
func TestConnDecoderValueAllocs(t *testing.T) {
	c := NewCodec()
	for name, frame := range valueFrames(t, c) {
		for _, p := range decodePaths(c) {
			got := testing.AllocsPerRun(1000, func() {
				if env, err := p.decode(frame); err != nil || env.From != 1 {
					t.Fatal("decode failed")
				}
			})
			if got != p.allocs {
				t.Errorf("%s through the %s decoder: %v allocs/op, want %v", name, p.name, got, p.allocs)
			}
		}
	}
}

// BenchmarkConnDecode is what a socket's read loop pays per frame that
// carries a value, against the shared UnmarshalEnvelope the loops called
// before they owned a decoder.
func BenchmarkConnDecode(b *testing.B) {
	c := NewCodec()
	for name, frame := range valueFrames(b, c) {
		for _, p := range decodePaths(c) {
			b.Run(name+"/"+p.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if env, err := p.decode(frame); err != nil || env.From != 1 {
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
