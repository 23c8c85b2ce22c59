package metrics

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// gap draws the distance to a sender's next send: mostly none (a leg of a
// broadcast), else anything from a nanosecond to ten seconds.
func gap(rng *rand.Rand) time.Duration {
	if rng.Intn(3) > 0 {
		return 0
	}
	return time.Duration(1 + rng.Int63n(int64(1)<<uint(rng.Intn(34)))) // 2³³ ns ≈ 8.6 s
}

// sliceModel is the send log the queries answer for, kept whole: every
// send's instant, per directed link.
type sliceModel struct {
	sent [][][]sim.Time // [from][to]
}

// last is from's latest send instant, over all its links or on the one to
// to when to >= 0.
func (m *sliceModel) last(from, to int) (last sim.Time, ok bool) {
	for q, ats := range m.sent[from] {
		for _, at := range ats {
			if to < 0 || q == to {
				last, ok = max(last, at), true
			}
		}
	}
	return last, ok
}

// TestSendLogMatchesSliceModel holds every query to a slice model that logs
// each send, for senders that burst, idle, and step backwards once (as
// goroutines sending under one id do), asked at fixed and random instants
// and at, just before and just after the instant each sender's last window
// sends begin.
func TestSendLogMatchesSliceModel(t *testing.T) {
	const n = 4
	k := obs.Intern("model-X")
	for _, window := range []int{1, 64, 1000, 1 << 20} {
		for _, sends := range []int{0, 1, 63, 1500, 6000, 20000} {
			for _, backwards := range []bool{false, true} {
				t.Run(fmt.Sprintf("window=%d/sends=%d/backwards=%v", window, sends, backwards), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(window + sends)))
					s := NewMessageStats(n)
					m := &sliceModel{sent: make([][][]sim.Time, n)}
					var horizon sim.Time
					instants := []sim.Time{0, 1}
					for p := range m.sent {
						m.sent[p] = make([][]sim.Time, n)
						if p == 0 {
							continue // sender 0 stays silent
						}
						at := sim.Time(rng.Int63n(1e9))
						total := sends * p / (n - 1)
						for i := 0; i < total; i++ {
							at = at.Add(gap(rng))
							if backwards && p == 1 && i == total/2 {
								at /= 2
							}
							if i == max(total-window, 0) {
								instants = append(instants, at-1, at, at+1)
							}
							to := (p + 1 + rng.Intn(n-1)) % n
							s.OnSend(at, p, to, k)
							m.sent[p][to] = append(m.sent[p][to], at)
							horizon = max(horizon, at)
						}
					}
					instants = append(instants, horizon, horizon+1)
					for i := 0; i < 50; i++ {
						instants = append(instants, sim.Time(rng.Int63n(int64(horizon)+2)))
					}
					checkAgainstModel(t, s, m, instants)
				})
			}
		}
	}
}

func checkAgainstModel(t *testing.T, s *MessageStats, m *sliceModel, instants []sim.Time) {
	t.Helper()
	for p := range m.sent {
		wantLast, wantOK := m.last(p, -1)
		if last, ok := s.LastSendBy(p); last != wantLast || ok != wantOK {
			t.Errorf("LastSendBy(%d) = %d,%v, want %d,%v", p, last, ok, wantLast, wantOK)
		}
		var quiet sim.Time
		for q := range m.sent {
			if last, ok := m.last(q, -1); ok && q != p {
				quiet = max(quiet, last+1)
			}
		}
		if got := s.QuietSince(p); got != quiet {
			t.Errorf("QuietSince(%d) = %d, want %d", p, got, quiet)
		}
		var sent uint64
		for q := range m.sent[p] {
			sent += uint64(len(m.sent[p][q]))
		}
		if got := s.SentBy(p); got != sent {
			t.Errorf("SentBy(%d) = %d, want %d", p, got, sent)
		}
	}
	for _, from := range instants {
		var senders []int
		links := 0
		for p := range m.sent {
			if last, ok := m.last(p, -1); ok && last >= from {
				senders = append(senders, p)
			}
			for q := range m.sent[p] {
				if last, ok := m.last(p, q); ok && last >= from {
					links++
				}
			}
		}
		if got := s.SendersSince(from); !reflect.DeepEqual(got, senders) {
			t.Errorf("SendersSince(%d) = %v, want %v", from, got, senders)
		}
		if got := s.LinksUsedSince(from); got != links {
			t.Errorf("LinksUsedSince(%d) = %d, want %d", from, got, links)
		}
	}
}

// TestSendLogBytesPerSend is the budget on what the stats keep per message
// sent for the life of a run: the heap a five-replica cluster's sends leave
// behind on the schedule of rsm's TestRetainedBytesPerCommand — a follower
// forwarding a request every 50 µs, the leader an ACCEPT to each of the
// four others every 800 µs and a heartbeat every 10 ms, every follower one
// ACCEPTED back. Counters and per-link instants keep nothing a send, so the
// budget is a tenth of a byte, room for the measurement's own noise; a log
// of varint instants in 2 KiB chunks kept 2.7, a 16-byte record in a
// doubling ring 20 to 28.
func TestSendLogBytesPerSend(t *testing.T) {
	const n, instances, budget = 5, 20000, 0.1
	k := obs.Intern("budget-X")
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	s := NewMessageStats(n)
	before := heap()
	for i := 0; i < instances; i++ {
		at := sim.At(time.Duration(i) * 800 * time.Microsecond)
		for c := 0; c < 16; c++ {
			s.OnSend(at.Add(time.Duration(c)*50*time.Microsecond), 2, 0, k)
		}
		for p := 1; p < n; p++ {
			s.OnSend(at, 0, p, k)
			s.OnSend(at.Add(775*time.Microsecond), p, 0, k)
		}
		for p := 1; p < n && i*800%10000 < 800; p++ {
			s.OnSend(at.Add(300*time.Microsecond), 0, p, k)
		}
	}
	per := (float64(heap()) - float64(before)) / float64(s.TotalSent())
	t.Logf("%.4f bytes retained per send", per)
	if per > budget {
		t.Fatalf("%.4f bytes retained per send, budget %.1f", per, budget)
	}
	runtime.KeepAlive(s)
}
