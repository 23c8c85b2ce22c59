package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// walPolicies are the three fsync policies, as the WAL benchmarks run them.
var walPolicies = []struct {
	name string
	opts Options
}{
	{"off", Options{Sync: SyncOff}},
	{"group64k", Options{Sync: SyncGroup, GroupBytes: 64 << 10}},
	{"always", Options{Sync: SyncAlways}},
}

// BenchmarkWALAppend measures a flushed append per fsync policy — the
// per-vote cost a durable replica pays on top of the in-memory protocol
// when the vote is alone in its turn. SyncOff is the kill-9-durable mode; SyncAlways pays a real
// fsync per record.
func BenchmarkWALAppend(b *testing.B) {
	for _, p := range walPolicies {
		b.Run(p.name, func(b *testing.B) {
			w, err := Open(b.TempDir(), p.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Accept(uint64(i), 7, "0123456789abcdef0123456789abcdef")
				w.Flush()
			}
		})
	}
}

// BenchmarkWALOpen measures Open and Close of a WAL in a directory Open
// creates, per fsync policy: what a replica's store adds to its boot before
// any record exists. No policy syncs here; a segment's first fsync pays
// for its directory entry.
func BenchmarkWALOpen(b *testing.B) {
	for _, p := range walPolicies {
		b.Run(p.name, func(b *testing.B) {
			root := b.TempDir()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dir := filepath.Join(root, fmt.Sprint(i))
				w, err := Open(dir, p.opts)
				if err != nil {
					b.Fatal(err)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				os.RemoveAll(dir)
				b.StartTimer()
			}
		})
	}
}

// BenchmarkWALTurn is what buffering buys: one op is 16 votes, made
// durable by one Flush at the end (a turn of the node loop) or by a Flush
// after each (what every record cost before turns).
func BenchmarkWALTurn(b *testing.B) {
	for _, sync := range []struct {
		name   string
		policy SyncPolicy
	}{{"off", SyncOff}, {"always", SyncAlways}} {
		for _, perRecord := range []bool{false, true} {
			name := sync.name + "/flush-per-turn"
			if perRecord {
				name = sync.name + "/flush-per-record"
			}
			b.Run(name, func(b *testing.B) {
				w, err := Open(b.TempDir(), Options{Sync: sync.policy})
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := 0; k < 16; k++ {
						w.Accept(uint64(16*i+k), 7, "0123456789abcdef0123456789abcdef")
						if perRecord {
							w.Flush()
						}
					}
					w.Flush()
				}
			})
		}
	}
}

// BenchmarkWALRecovery measures Open (snapshot load + tail replay) as a
// function of log length: the dominant term in restart downtime.
func BenchmarkWALRecovery(b *testing.B) {
	for _, entries := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("entries-%d", entries), func(b *testing.B) {
			dir := b.TempDir()
			w, err := Open(dir, Options{Sync: SyncOff})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < entries; i++ {
				w.Accept(uint64(i), 7, "0123456789abcdef")
				w.Decide(uint64(i), "0123456789abcdef")
			}
			w.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w2, err := Open(dir, Options{Sync: SyncOff})
				if err != nil {
					b.Fatal(err)
				}
				if len(w2.State().Decided) != entries {
					b.Fatalf("recovered %d, want %d", len(w2.State().Decided), entries)
				}
				w2.Close()
			}
		})
	}
}
