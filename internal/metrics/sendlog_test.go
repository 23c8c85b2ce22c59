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

// sliceModel is the send log as a plain slice per sender: everything ever
// sent, of which the last window are retained.
type sliceModel struct {
	window int
	sent   [][]sim.Time
}

func (m *sliceModel) retained(from int) []sim.Time {
	all := m.sent[from]
	return all[max(0, len(all)-m.window):]
}

func (m *sliceModel) inWindow(from, to sim.Time) (n uint64) {
	for p := range m.sent {
		for _, at := range m.retained(p) {
			if from <= at && at < to {
				n++
			}
		}
	}
	return n
}

func (m *sliceModel) last(p int) (last sim.Time, ok bool) {
	for _, at := range m.sent[p] {
		last = max(last, at)
	}
	return last, len(m.sent[p]) > 0
}

// TestSendLogMatchesSliceModel holds every query over the send log to the
// slice model, for senders that burst, idle, and step backwards once, at
// windows that evict inside a chunk, across chunks and never, and at the
// instants where the log's chunks happen to begin.
func TestSendLogMatchesSliceModel(t *testing.T) {
	const n = 4
	k := obs.Intern("model-X")
	for _, window := range []int{1, 64, 1000, DefaultWindow} {
		for _, sends := range []int{0, 1, 63, 1500, 6000, 20000} { // at 20000, 5 to 17 chunks a sender
			for _, backwards := range []bool{false, true} {
				t.Run(fmt.Sprintf("window=%d/sends=%d/backwards=%v", window, sends, backwards), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(window + sends)))
					s := NewMessageStatsWindow(n, window)
					m := &sliceModel{window: window, sent: make([][]sim.Time, n)}
					var horizon sim.Time
					for p := 1; p < n; p++ { // sender 0 stays silent
						at := sim.Time(rng.Int63n(1e9))
						for i, total := 0, sends*p/(n-1); i < total; i++ {
							at = at.Add(gap(rng))
							if backwards && p == 1 && i == total/2 {
								at /= 2
							}
							s.OnSend(at, p, 0, k)
							m.sent[p] = append(m.sent[p], at)
							horizon = max(horizon, at)
						}
					}
					checkAgainstModel(t, s.Snapshot(), m, horizon, rng)
				})
			}
		}
	}
}

func checkAgainstModel(t *testing.T, snap *Snapshot, m *sliceModel, horizon sim.Time, rng *rand.Rand) {
	t.Helper()
	instants := []sim.Time{0, 1, horizon, horizon + 1}
	for p := range snap.logs {
		l := &snap.logs[p]
		if got, want := l.total-l.evicted(), len(m.retained(p)); got != want {
			t.Fatalf("p%d retains %d sends, want %d", p, got, want)
		}
		for _, c := range l.chunks {
			instants = append(instants, c.first-1, c.first, c.first+1)
		}
		wantLast, wantOK := m.last(p)
		if last, ok := snap.LastSendBy(p); last != wantLast || ok != wantOK {
			t.Errorf("LastSendBy(%d) = %d,%v, want %d,%v", p, last, ok, wantLast, wantOK)
		}
		var quiet sim.Time
		for q := range m.sent {
			if last, ok := m.last(q); ok && q != p {
				quiet = max(quiet, last+1)
			}
		}
		if got := snap.QuietSince(p); got != quiet {
			t.Errorf("QuietSince(%d) = %d, want %d", p, got, quiet)
		}
	}
	for i := 0; i < 50; i++ {
		instants = append(instants, sim.Time(rng.Int63n(int64(horizon)+2)))
	}
	for _, from := range instants {
		var senders []int
		for p := range m.sent {
			if last, ok := m.last(p); ok && last >= from {
				senders = append(senders, p)
			}
		}
		if got := snap.SendersSince(from); !reflect.DeepEqual(got, senders) {
			t.Errorf("SendersSince(%d) = %v, want %v", from, got, senders)
		}
		to := instants[rng.Intn(len(instants))]
		if to < from {
			from, to = to, from
		}
		if got, want := snap.MessagesInWindow(from, to), m.inWindow(from, to); got != want {
			t.Errorf("MessagesInWindow(%d, %d) = %d, want %d", from, to, got, want)
		}
	}
	for _, h := range []sim.Time{0, horizon / 3, horizon} {
		bucket := time.Duration(h/40 + 1)
		per := make([][]uint64, len(m.sent))
		all := make([]uint64, int64(h)/int64(bucket)+1)
		for p := range m.sent {
			per[p] = make([]uint64, len(all))
			for _, at := range m.retained(p) {
				if at <= h {
					per[p][int64(at)/int64(bucket)]++
					all[int64(at)/int64(bucket)]++
				}
			}
		}
		if got := snap.SeriesBySender(bucket, h); !reflect.DeepEqual(got, per) {
			t.Errorf("SeriesBySender(%v, %d) = %v, want %v", bucket, h, got, per)
		}
		if got := snap.Series(bucket, h); !reflect.DeepEqual(got, all) {
			t.Errorf("Series(%v, %d) = %v, want %v", bucket, h, got, all)
		}
	}
}

// TestSendLogBytesPerSend is the budget on what the log keeps per message
// sent for the life of a run (up to DefaultWindow a sender): the heap a
// five-replica cluster's sends leave behind on the schedule of rsm's
// TestRetainedBytesPerCommand — a follower forwarding a request every
// 50 µs, the leader an ACCEPT to each of the four others every 800 µs and
// a heartbeat every 10 ms, every follower one ACCEPTED back — open chunks
// and chunk headers included. Measured 2.7; a 16-byte record in a doubling
// ring kept 20 to 28.
func TestSendLogBytesPerSend(t *testing.T) {
	const n, instances, budget = 5, 20000, 4.0
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
	per := float64(heap()-before) / float64(s.TotalSent())
	t.Logf("%.2f bytes retained per send", per)
	if per > budget {
		t.Fatalf("%.2f bytes retained per send, budget %.0f", per, budget)
	}
	runtime.KeepAlive(s)
}
