package group

import (
	"testing"

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
