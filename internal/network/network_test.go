package network

import (
	"math/bits"
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

const ms = time.Millisecond

// The kinds the tests send, interned once as a protocol interns its own.
var (
	kindX    = obs.Intern("X")
	kindPRE  = obs.Intern("PRE")
	kindPOST = obs.Intern("POST")
	kindAT   = obs.Intern("AT")
	kindPING = obs.Intern("PING")
)

type delivery struct {
	at       sim.Time
	from, to int
	payload  any
}

func newTestFabric(t *testing.T, n int, def Profile, gst sim.Time) (*sim.Kernel, *Fabric, *[]delivery, *metrics.MessageStats) {
	t.Helper()
	k := sim.NewKernel(1)
	stats := metrics.NewMessageStats(n)
	f, err := NewFabric(k, n, def, obs.Tee(stats, obs.Nop{}))
	if err != nil {
		t.Fatal(err)
	}
	f.SetGST(gst)
	var got []delivery
	f.SetDeliver(func(from, to int, payload any) {
		got = append(got, delivery{at: k.Now(), from: from, to: to, payload: payload})
	})
	return k, f, &got, stats
}

func TestTimelyLinkDeliversWithinDelta(t *testing.T) {
	k, f, got, _ := newTestFabric(t, 2, Timely(10*ms), 0)
	for i := 0; i < 50; i++ {
		f.Send(0, 1, kindX, i)
	}
	k.RunFor(time.Second)
	if len(*got) != 50 {
		t.Fatalf("delivered %d, want 50", len(*got))
	}
	for _, d := range *got {
		if d.at > sim.At(10*ms) {
			t.Fatalf("delivery at %v exceeds delta", d.at)
		}
	}
}

func TestEventuallyTimelyBeforeAndAfterGST(t *testing.T) {
	gst := sim.At(100 * ms)
	k, f, got, stats := newTestFabric(t, 2, EventuallyTimely(5*ms, 500*ms, 0.5), gst)
	// Pre-GST sends: some must be dropped, the rest arbitrarily delayed.
	for i := 0; i < 200; i++ {
		f.Send(0, 1, kindPRE, i)
	}
	k.RunUntil(gst, nil)
	// Post-GST sends must all arrive within delta.
	preDelivered := len(*got)
	*got = nil
	for i := 0; i < 100; i++ {
		f.Send(0, 1, kindPOST, i)
	}
	k.RunFor(5 * ms)
	var post int
	for _, d := range *got {
		if d.at < gst {
			continue
		}
		post++
	}
	_ = preDelivered
	if post < 100 {
		// Some pre-GST stragglers may also be in got; count only POST by
		// checking totals instead.
		t.Fatalf("post-GST deliveries = %d, want >= 100 within delta", post)
	}
	if stats.Dropped() == 0 {
		t.Fatal("expected some pre-GST drops with DropProb=0.5")
	}
	if stats.Dropped() >= 200 {
		t.Fatalf("dropped %d of 200 pre-GST messages; expected roughly half", stats.Dropped())
	}
}

func TestReliableLinkNeverDrops(t *testing.T) {
	k, f, got, stats := newTestFabric(t, 2, Reliable(ms, 300*ms), 0)
	for i := 0; i < 200; i++ {
		f.Send(0, 1, kindX, i)
	}
	k.RunFor(time.Second)
	if len(*got) != 200 {
		t.Fatalf("delivered %d, want 200", len(*got))
	}
	if stats.Dropped() != 0 {
		t.Fatalf("dropped %d on reliable link", stats.Dropped())
	}
}

func TestFairLossyDropsSomeNotAll(t *testing.T) {
	k, f, got, stats := newTestFabric(t, 2, FairLossy(ms, 10*ms, 0.4), 0)
	for i := 0; i < 500; i++ {
		f.Send(0, 1, kindX, i)
	}
	k.RunFor(time.Second)
	if stats.Dropped() == 0 {
		t.Fatal("fair-lossy dropped nothing over 500 sends")
	}
	if len(*got) == 0 {
		t.Fatal("fair-lossy delivered nothing")
	}
	if int(stats.Dropped())+len(*got) != 500 {
		t.Fatalf("drop+deliver = %d+%d != 500", stats.Dropped(), len(*got))
	}
}

func TestLossyCanDropEverything(t *testing.T) {
	k, f, got, _ := newTestFabric(t, 2, Lossy(ms, 10*ms, 1.0), 0)
	for i := 0; i < 50; i++ {
		f.Send(0, 1, kindX, i)
	}
	k.RunFor(time.Second)
	if len(*got) != 0 {
		t.Fatalf("lossy(p=1) delivered %d messages", len(*got))
	}
}

func TestDownLinkDeliversNothing(t *testing.T) {
	k, f, got, _ := newTestFabric(t, 2, Down(), 0)
	f.Send(0, 1, kindX, nil)
	k.RunFor(time.Second)
	if len(*got) != 0 {
		t.Fatal("down link delivered")
	}
}

func TestCutAndHeal(t *testing.T) {
	k, f, got, _ := newTestFabric(t, 2, Timely(ms), 0)
	f.Cut(0, 1)
	f.Send(0, 1, kindX, "dropped")
	k.RunFor(10 * ms)
	if len(*got) != 0 {
		t.Fatal("cut link delivered")
	}
	f.Heal(0, 1)
	f.Send(0, 1, kindX, "ok")
	k.RunFor(10 * ms)
	if len(*got) != 1 {
		t.Fatalf("healed link delivered %d, want 1", len(*got))
	}
}

func TestIsolateAndRejoin(t *testing.T) {
	k, f, got, _ := newTestFabric(t, 3, Timely(ms), 0)
	f.Isolate(1)
	f.Send(0, 1, kindX, nil)
	f.Send(1, 2, kindX, nil)
	f.Send(0, 2, kindX, nil) // unaffected link
	k.RunFor(10 * ms)
	if len(*got) != 1 || (*got)[0].to != 2 {
		t.Fatalf("deliveries after isolate = %v", *got)
	}
	f.Rejoin(1)
	f.Send(0, 1, kindX, nil)
	k.RunFor(10 * ms)
	if len(*got) != 2 {
		t.Fatalf("deliveries after rejoin = %d, want 2", len(*got))
	}
}

func TestPerLinkProfileOverrides(t *testing.T) {
	k, f, got, _ := newTestFabric(t, 3, Down(), 0)
	if err := f.SetOutgoing(0, Timely(ms)); err != nil {
		t.Fatal(err)
	}
	f.Send(0, 1, kindX, nil)
	f.Send(0, 2, kindX, nil)
	f.Send(1, 2, kindX, nil) // still down
	k.RunFor(10 * ms)
	if len(*got) != 2 {
		t.Fatalf("delivered %d, want 2 (only source links are up)", len(*got))
	}
	if f.Profile(1, 2).Kind != LinkDown {
		t.Fatal("non-source link profile changed")
	}
	if f.Profile(0, 1).Kind != LinkTimely {
		t.Fatal("source link profile not applied")
	}
}

func TestSetIncoming(t *testing.T) {
	k, f, got, _ := newTestFabric(t, 3, Down(), 0)
	if err := f.SetIncoming(2, Timely(ms)); err != nil {
		t.Fatal(err)
	}
	f.Send(0, 2, kindX, nil)
	f.Send(1, 2, kindX, nil)
	f.Send(0, 1, kindX, nil)
	k.RunFor(10 * ms)
	if len(*got) != 2 {
		t.Fatalf("delivered %d, want 2", len(*got))
	}
}

func TestProfileValidate(t *testing.T) {
	cases := []struct {
		name    string
		p       Profile
		wantErr bool
	}{
		{"timely ok", Timely(ms), false},
		{"timely no delta", Profile{Kind: LinkTimely}, true},
		{"timely min>delta", Profile{Kind: LinkTimely, Delta: ms, MinDelay: 2 * ms}, true},
		{"et ok", EventuallyTimely(ms, 10*ms, 0.5), false},
		{"reliable ok", Reliable(0, ms), false},
		{"reliable no max", Profile{Kind: LinkReliable}, true},
		{"reliable min>max", Profile{Kind: LinkReliable, MinDelay: 2 * ms, MaxDelay: ms}, true},
		{"fairlossy drop 1", Profile{Kind: LinkFairLossy, MaxDelay: ms, DropProb: 1}, true},
		{"lossy drop 1 ok", Lossy(0, ms, 1), false},
		{"drop out of range", Profile{Kind: LinkLossy, MaxDelay: ms, DropProb: 1.5}, true},
		{"down ok", Down(), false},
		{"unknown kind", Profile{Kind: LinkKind(42)}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate() err = %v, wantErr=%v", err, tc.wantErr)
			}
		})
	}
}

func TestLinkKindStrings(t *testing.T) {
	for k, want := range map[LinkKind]string{
		LinkTimely: "timely", LinkEventuallyTimely: "eventually-timely",
		LinkReliable: "reliable", LinkFairLossy: "fair-lossy",
		LinkLossy: "lossy", LinkDown: "down", LinkKind(9): "LinkKind(9)",
	} {
		if got := k.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

func TestSelfSendPanics(t *testing.T) {
	_, f, _, _ := newTestFabric(t, 2, Timely(ms), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-send")
		}
	}()
	f.Send(0, 0, kindX, nil)
}

func TestSendBeforeDeliverPanics(t *testing.T) {
	k := sim.NewKernel(1)
	f, err := NewFabric(k, 2, Timely(ms), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic before SetDeliver")
		}
	}()
	f.Send(0, 1, kindX, nil)
}

func TestNewFabricRejectsBadConfig(t *testing.T) {
	k := sim.NewKernel(1)
	if _, err := NewFabric(k, 0, Timely(ms), nil); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewFabric(k, 2, Profile{Kind: LinkTimely}, nil); err == nil {
		t.Fatal("invalid default profile accepted")
	}
}

func TestStatsRecorded(t *testing.T) {
	k, f, _, stats := newTestFabric(t, 2, Timely(ms), 0)
	f.Send(0, 1, kindPING, nil)
	k.RunFor(10 * ms)
	if stats.TotalSent() != 1 || stats.Delivered() != 1 {
		t.Fatalf("stats sent=%d delivered=%d", stats.TotalSent(), stats.Delivered())
	}
	if stats.KindCount("PING") != 1 {
		t.Fatal("kind not recorded")
	}
}

// TestFreshFabricMintsRecordsInChunks: a fresh fabric that comes to carry
// 1,000 messages at once allocates about ⌈log₂ 1,000⌉ times, not once a
// message: its delivery records come in chunks that double from chunkFirst
// to chunkMax (seven chunks), and the kernel runs each record itself, so no
// record binds a closure. The kernel is warmed first so that only the
// fabric's allocations count. Every message is then delivered.
func TestFreshFabricMintsRecordsInChunks(t *testing.T) {
	const n = 1000
	k := sim.NewKernel(1)
	fn := func() {}
	for i := 0; i < n; i++ {
		k.Schedule(0, fn)
	}
	k.RunFor(ms)
	f, err := NewFabric(k, 2, Timely(ms), nil)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	f.SetDeliver(func(from, to int, payload any) { delivered++ })
	var payload any = &delivery{}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f.Send(0, 1, kindX, payload)
	}
	runtime.ReadMemStats(&after)
	got := after.Mallocs - before.Mallocs
	t.Logf("%d messages in flight: %d allocations", n, got)
	if bound := bits.Len(n); got > uint64(bound) {
		t.Fatalf("%d messages in flight cost %d allocations, want at most %d", n, got, bound)
	}
	k.RunFor(time.Second)
	if delivered != n {
		t.Fatalf("%d of %d messages delivered", delivered, n)
	}
}
