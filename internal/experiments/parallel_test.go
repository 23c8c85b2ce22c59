package experiments

import (
	"bytes"
	"testing"
)

// TestRunAllMarkdownWorkerDeterminism is the sweep engine's acceptance
// test: the full markdown suite rendered with one worker must be
// byte-identical to the same suite fanned across several workers. A fixed
// worker count (not GOMAXPROCS) keeps the concurrent merge path exercised
// even on single-core machines.
func TestRunAllMarkdownWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice")
	}
	o := Opts{Quick: true}

	var seq bytes.Buffer
	o.Workers = 1
	if err := RunAll(&seq, o); err != nil {
		t.Fatalf("sequential run: %v", err)
	}

	var par bytes.Buffer
	o.Workers = 4
	if err := RunAll(&par, o); err != nil {
		t.Fatalf("parallel run: %v", err)
	}

	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		i := 0
		for i < len(seq.Bytes()) && i < len(par.Bytes()) && seq.Bytes()[i] == par.Bytes()[i] {
			i++
		}
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		clip := func(b []byte) []byte {
			if hi > len(b) {
				return b[lo:]
			}
			return b[lo:hi]
		}
		t.Fatalf("parallel output diverges from sequential at byte %d:\nseq: %q\npar: %q",
			i, clip(seq.Bytes()), clip(par.Bytes()))
	}
}
