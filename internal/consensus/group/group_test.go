package group

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/consensus"
	"repro/internal/node"
)

// TestRotationRoundTrip proves Physical and Logical are inverses on every
// (id, group, n) triple in a realistic range, and that each group's logical
// id 0 — the Omega tie-break winner — lands on a distinct physical process
// when G <= n.
func TestRotationRoundTrip(t *testing.T) {
	for n := 1; n <= 7; n++ {
		for g := 0; g < 2*n; g++ {
			for p := 0; p < n; p++ {
				l := Logical(node.ID(p), g, n)
				if l < 0 || int(l) >= n {
					t.Fatalf("Logical(%d,%d,%d) = %d out of range", p, g, n, l)
				}
				if back := Physical(l, g, n); back != node.ID(p) {
					t.Fatalf("Physical(Logical(%d,%d,%d)) = %d", p, g, n, back)
				}
			}
			if lead := Physical(0, g, n); int(lead) != g%n {
				t.Fatalf("group %d leader at physical %d, want %d", g, lead, g%n)
			}
		}
	}
}

// TestRouterMatchesFNV pins the router's hash to the standard library's
// FNV-1a: the routing function is part of the client contract (every
// ingress must route a key identically), so it must never drift.
func TestRouterMatchesFNV(t *testing.T) {
	r := NewRouter(4)
	for _, key := range []string{"", "a", "key-17", "x=y", "the quick brown fox"} {
		h := fnv.New64a()
		_, _ = h.Write([]byte(key))
		want := int(h.Sum64() % 4)
		if got := r.Group(key); got != want {
			t.Fatalf("Group(%q) = %d, want %d", key, got, want)
		}
	}
}

// TestRouterSpread checks the hash actually spreads realistic keys: over
// 4k distinct keys and 4 groups, no group holds more than twice its fair
// share. (Not a statistical property test — a regression tripwire for
// accidentally hashing, say, only the first byte.)
func TestRouterSpread(t *testing.T) {
	r := NewRouter(4)
	counts := make([]int, 4)
	for i := 0; i < 4096; i++ {
		counts[r.Group(fmt.Sprintf("key-%d=value", i))]++
	}
	for g, c := range counts {
		if c > 2048 || c < 256 {
			t.Fatalf("group %d holds %d of 4096 keys: %v", g, c, counts)
		}
	}
}

// TestRouterRoute checks the batch fan-out: per-group slices, input order
// preserved, every command present exactly once.
func TestRouterRoute(t *testing.T) {
	r := NewRouter(3)
	var cmds []consensus.Value
	for i := 0; i < 64; i++ {
		cmds = append(cmds, consensus.Value(fmt.Sprintf("k%d", i)))
	}
	out := r.Route(cmds)
	if len(out) != 3 {
		t.Fatalf("Route returned %d slices, want 3", len(out))
	}
	total := 0
	for g, part := range out {
		prev := -1
		for _, c := range part {
			if got := r.Group(string(c)); got != g {
				t.Fatalf("command %q routed to slice %d but hashes to %d", c, g, got)
			}
			var idx int
			if _, err := fmt.Sscanf(string(c), "k%d", &idx); err != nil {
				t.Fatal(err)
			}
			if idx <= prev {
				t.Fatalf("group %d out of input order: %v", g, part)
			}
			prev = idx
		}
		total += len(part)
	}
	if total != len(cmds) {
		t.Fatalf("Route kept %d of %d commands", total, len(cmds))
	}
}
