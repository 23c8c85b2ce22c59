// Replicatedkv: a tiny replicated key-value store on top of the repeated
// consensus engine (internal/consensus/rsm), itself driven by the
// communication-efficient Omega.
//
// Commands are "SET key value" strings decided into a shared log; every
// replica applies the log in order via the engine's OnApply hook — the
// engine batches bursts of commands into shared instances and unpacks
// them again at apply time, so the store never sees batch envelopes. All
// stores converge to the same state — through a leader crash in the
// middle of the write stream.
//
// Each replica also writes through a real write-ahead log
// (internal/durable, DESIGN.md §14): acceptor promises and votes are on
// disk before they are on the wire, and a checkpoint every few applied
// commands keeps the log short. After the run, the example reopens one
// replica's WAL directory offline — exactly what a kill -9'd process
// would see at restart — rebuilds the store from checkpoint + decided
// tail, and checks it matches the live replicas bit for bit.
//
//	go run ./examples/replicatedkv
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/consensus"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/network"
	"repro/internal/node"
)

// store is a replica's state machine. The engine invokes apply through
// its OnApply hook, in log order, once per command — batch envelopes are
// already unpacked.
type store struct {
	data    map[string]string
	applied int // commands applied, noops included
}

func newStore() *store { return &store{data: make(map[string]string)} }

func (s *store) apply(cmd string) {
	s.applied++
	if cmd == string(consensus.Noop) {
		return
	}
	parts := strings.SplitN(cmd, " ", 3)
	if len(parts) == 3 && parts[0] == "SET" {
		s.data[parts[1]] = parts[2]
	}
}

// fingerprint doubles as the checkpoint encoding: keys and values in
// this example never contain '=' or ';', so the deterministic
// "k=v;k=v;" form round-trips through restore.
func (s *store) fingerprint() string {
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s;", k, s.data[k])
	}
	return b.String()
}

func (s *store) restore(snap string) {
	for _, pair := range strings.Split(snap, ";") {
		if k, v, ok := strings.Cut(pair, "="); ok {
			s.data[k] = v
		}
	}
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const n = 5
	walRoot, err := os.MkdirTemp("", "replicatedkv-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walRoot)

	world, err := node.NewWorld(node.WorldConfig{
		N: n, Seed: 99, DefaultLink: network.Timely(2 * time.Millisecond),
	})
	if err != nil {
		return err
	}
	logs := make([]*rsm.Node, n)
	stores := make([]*store, n)
	for i := 0; i < n; i++ {
		det := core.New(core.WithEta(10 * time.Millisecond))
		// SyncOff: page-cache durability survives kill -9, which is the
		// failure mode this example replays. Production would pick
		// SyncAlways or SyncGroup (power-failure durability).
		wal, err := durable.Open(filepath.Join(walRoot, fmt.Sprintf("p%d", i)), durable.Options{Sync: durable.SyncOff})
		if err != nil {
			return err
		}
		stores[i] = newStore()
		st := stores[i]
		logs[i] = rsm.New(det, rsm.Config{
			Store:         wal,
			SnapshotEvery: 5,
			SnapshotState: func() []byte { return []byte(st.fingerprint()) },
			RestoreState:  func(b []byte) { st.restore(string(b)) },
		})
		logs[i].OnApply(func(inst, cmd int, v consensus.Value) { st.apply(string(v)) })
		world.SetAutomaton(node.ID(i), node.Compose(det, logs[i]))
	}
	world.Start()
	world.RunFor(500 * time.Millisecond) // leader elected, ballot prepared

	// Phase 1: clients on different replicas write ten keys.
	fmt.Println("phase 1: 10 writes via replicas p1..p4")
	for i := 0; i < 10; i++ {
		replica := 1 + i%4 // never the leader: exercises forwarding
		logs[replica].Submit(consensus.Value(fmt.Sprintf("SET key%d v%d", i, i)))
	}
	world.RunFor(2 * time.Second)

	// Phase 2: the leader dies mid-stream.
	fmt.Println("phase 2: crash the leader, write 5 more keys")
	world.Crash(0)
	for i := 10; i < 15; i++ {
		logs[2].Submit(consensus.Value(fmt.Sprintf("SET key%d v%d", i, i)))
	}
	world.RunFor(5 * time.Second)

	// Compare the continuously applied states.
	fmt.Println("\nreplica  applied  retained  state fingerprint")
	var want string
	for i := 1; i < n; i++ {
		fp := stores[i].fingerprint()
		fmt.Printf("p%-7d %-8d %-9d %s\n", i, stores[i].applied, logs[i].Retained(), truncate(fp, 55))
		if want == "" {
			want = fp
		} else if fp != want {
			return fmt.Errorf("replica p%d diverged", i)
		}
	}
	for i := 0; i < 15; i++ {
		if stores[1].data[fmt.Sprintf("key%d", i)] != fmt.Sprintf("v%d", i) {
			return fmt.Errorf("key%d missing or wrong", i)
		}
	}
	fmt.Println("\nall surviving replicas converged to the same 15-key state ✓")

	// Phase 3: kill -9 replay. Reopen p1's WAL directory offline — the
	// live handle is deliberately left un-Closed, exactly as a killed
	// process leaves it — and rebuild the store a restart would recover:
	// checkpoint state plus the decided tail above it.
	fmt.Println("\nphase 3: reopen p1's write-ahead log offline, replay, compare")
	recovered, err := recoverStore(filepath.Join(walRoot, "p1"))
	if err != nil {
		return err
	}
	if fp := recovered.fingerprint(); fp != want {
		return fmt.Errorf("recovered state diverged:\n  live %s\n  wal  %s", want, fp)
	}
	fmt.Println("state rebuilt from checkpoint + decided tail matches the live replicas ✓")
	return nil
}

// recoverStore is the offline half of crash-recovery: open the WAL
// directory, install the checkpointed application state, then apply the
// contiguous decided entries above the checkpoint in instance order —
// unpacking batch envelopes the same way the live applier does.
func recoverStore(dir string) (*store, error) {
	w, err := durable.Open(dir, durable.Options{Sync: durable.SyncOff})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	st := w.State()
	if st == nil {
		return nil, fmt.Errorf("recoverStore: %s holds no state", dir)
	}
	s := newStore()
	s.restore(string(st.App))
	s.applied = int(st.SnapCount)
	decided := make(map[uint64]string, len(st.Decided))
	for _, d := range st.Decided {
		decided[d.Inst] = d.V
	}
	for inst := st.SnapIndex; ; inst++ {
		v, ok := decided[inst]
		if !ok {
			return s, nil
		}
		for _, cmd := range rsm.DecodeBatch(consensus.Value(v)) {
			s.apply(string(cmd))
		}
	}
}

func truncate(s string, max int) string {
	if len(s) <= max {
		return s
	}
	return s[:max] + "…"
}
