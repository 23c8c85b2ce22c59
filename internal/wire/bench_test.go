package wire

import (
	"testing"

	"repro/internal/core"
	"repro/internal/detector/source"
	"repro/internal/node"
)

// benchEnvelope measures the full envelope path: encode
// (MarshalEnvelopeAppend into a reused buffer) and decode
// (UnmarshalEnvelope with the pooled decoder). Both halves of a heartbeat
// and a vector's encode stay at 0 allocs/op — make bench-micro fails
// otherwise; a vector's decode reads 2 — and the wire-B/msg metric reports
// the frame's size.
func benchEnvelope(b *testing.B, msg node.Message) {
	c := NewCodec()
	frame, err := c.MarshalEnvelope(1, msg)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, 256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, err := c.MarshalEnvelopeAppend(buf[:0], 1, msg)
			if err != nil {
				b.Fatal(err)
			}
			buf = out[:0]
		}
		b.ReportMetric(float64(len(frame)), "wire-B/msg")
	})

	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			env, err := c.UnmarshalEnvelope(frame)
			if err != nil || env.From != 1 {
				b.Fatal("decode failed")
			}
		}
		b.ReportMetric(float64(len(frame)), "wire-B/msg")
	})
}

// BenchmarkEnvelopeVarint is the steady-state heartbeat envelope — the
// frame every live link carries once per η.
func BenchmarkEnvelopeVarint(b *testing.B) {
	benchEnvelope(b, core.LeaderMsg{Epoch: 5})
}

// BenchmarkEnvelopeVarintVector exercises the vector-carrying heartbeat
// of the SOURCE-detector (one counter per process, n = 8): varint
// counters shrink with their values, so the steady-state vector frame is
// about a byte per entry.
func BenchmarkEnvelopeVarintVector(b *testing.B) {
	benchEnvelope(b, source.AliveMsg{Counters: []uint64{3, 0, 17, 254, 1, 9, 0, 2}})
}
