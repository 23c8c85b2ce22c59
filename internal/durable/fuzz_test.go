package durable

import (
	"bytes"
	"testing"
)

// FuzzWALRecordRoundTrip drives arbitrary bytes through the WAL record
// parser (nextFrame + parseRecordPayload) and, whenever a record
// decodes, re-encodes it and demands a byte-stable fixpoint. Mirrors
// wire's FuzzEnvelopeRoundTrip. Invariants:
//
//  1. no input panics or over-allocates (lengths are range-checked
//     before any allocation);
//  2. decode∘encode is the identity on every decodable frame — the
//     re-encoded record reproduces the consumed bytes exactly;
//  3. canonical frames are strict — truncating one byte yields a torn
//     tail, flipping one payload byte breaks the CRC.
func FuzzWALRecordRoundTrip(f *testing.F) {
	canon := func(rec record) []byte {
		return appendFrame(nil, appendRecordPayload(nil, rec))
	}
	seeds := [][]byte{
		canon(record{typ: recPromise, b: 7}),
		canon(record{typ: recBallot, b: 1 << 40}),
		canon(record{typ: recAccept, inst: 3, b: 9, v: "cmd"}),
		canon(record{typ: recAccept, inst: 0, b: 0, v: ""}),
		canon(record{typ: recDecide, inst: 12, v: "\x00b\x02aa\x02bb"}), // batch-envelope-ish value
	}
	// Two records back to back.
	f.Add(append(append([]byte{}, seeds[0]...), seeds[2]...))
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)-1]) // truncated tail
		bad := append([]byte(nil), s...)
		bad[len(bad)-1] ^= 0xFF // CRC mismatch on the last payload byte
		f.Add(bad)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})                                                             // zero-length record
	f.Add(appendFrame(nil, []byte{}))                                               // framed zero-length payload
	f.Add(appendFrame(nil, []byte{0x7F, 0x01}))                                     // unknown record type
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // uvarint overflow

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for {
			payload, after, err := nextFrame(rest)
			if err != nil {
				// Errors stop a scan: clean EOF, torn tail, or a
				// corrupt frame.
				return
			}
			rec, perr := parseRecordPayload(payload)
			if perr != nil {
				return
			}
			// Fixpoint: the canonical re-encoding decodes back to the
			// same record (raw input may use non-canonical varints, so
			// byte-identity with the input is not required).
			re := appendFrame(nil, appendRecordPayload(nil, rec))
			p2, rest2, err := nextFrame(re)
			if err != nil || len(rest2) != 0 {
				t.Fatalf("canonical frame failed to parse: %x (%v)", re, err)
			}
			rec2, err := parseRecordPayload(p2)
			if err != nil || rec2 != rec {
				t.Fatalf("round-trip mismatch: %+v vs %+v (%v)", rec, rec2, err)
			}
			// Strictness of the canonical frame: chop a byte → torn,
			// flip a payload byte → CRC failure.
			if _, _, err := nextFrame(re[:len(re)-1]); err == nil {
				t.Fatalf("truncated canonical frame parsed: %x", re)
			}
			flipped := append([]byte(nil), re...)
			flipped[len(flipped)-1] ^= 0xFF
			if p, _, err := nextFrame(flipped); err == nil {
				if _, perr := parseRecordPayload(p); perr == nil {
					t.Fatalf("bit-flipped canonical frame parsed: %x", flipped)
				}
			}
			rest = after
		}
	})
}

// FuzzStateRoundTrip covers the checkpoint payload codec with the same
// identity invariant.
func FuzzStateRoundTrip(f *testing.F) {
	st := &State{
		Promised: 9, Ballot: 9, SnapIndex: 4, SnapCount: 6,
		Accepted: []AcceptedRec{{Inst: 5, B: 9, V: "x"}},
		Decided:  []DecidedRec{{Inst: 4, V: "y"}},
		App:      []byte("payload"),
	}
	f.Add(appendStatePayload(nil, st))
	f.Add(appendStatePayload(nil, &State{}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := parseStatePayload(data)
		if err != nil {
			return
		}
		re := appendStatePayload(nil, st)
		st2, err := parseStatePayload(re)
		if err != nil {
			t.Fatalf("canonical state payload failed to parse: %v", err)
		}
		re2 := appendStatePayload(nil, st2)
		if !bytes.Equal(re, re2) {
			t.Fatalf("state fixpoint mismatch:\n got %x\nwant %x", re2, re)
		}
	})
}
