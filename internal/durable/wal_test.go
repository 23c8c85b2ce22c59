package durable

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func openT(t *testing.T, dir string, opts Options) *WAL {
	t.Helper()
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return w
}

func TestFreshDirHasNoState(t *testing.T) {
	w := openT(t, t.TempDir(), Options{Sync: SyncOff})
	if w.State() != nil {
		t.Fatalf("fresh WAL recovered state %+v, want nil", w.State())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecordRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{Sync: SyncAlways})
	w.Promise(7)
	w.Ballot(7)
	w.Accept(0, 7, "a")
	w.Accept(1, 7, "b")
	w.Decide(0, "a")
	w.Promise(12) // later promise overrides
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openT(t, dir, Options{Sync: SyncAlways})
	defer w2.Close()
	st := w2.State()
	if st == nil {
		t.Fatal("no state recovered")
	}
	if st.Promised != 12 || st.Ballot != 7 {
		t.Fatalf("promised=%d ballot=%d, want 12/7", st.Promised, st.Ballot)
	}
	wantDec := []DecidedRec{{Inst: 0, V: "a"}}
	if !reflect.DeepEqual(st.Decided, wantDec) {
		t.Fatalf("decided = %+v, want %+v", st.Decided, wantDec)
	}
	// Instance 0 decided, so only instance 1's vote survives as accepted.
	wantAcc := []AcceptedRec{{Inst: 1, B: 7, V: "b"}}
	if !reflect.DeepEqual(st.Accepted, wantAcc) {
		t.Fatalf("accepted = %+v, want %+v", st.Accepted, wantAcc)
	}
}

func TestAcceptImpliesPromise(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{Sync: SyncOff})
	w.Accept(3, 9, "v")
	w.Close()
	w2 := openT(t, dir, Options{Sync: SyncOff})
	defer w2.Close()
	if got := w2.State().Promised; got != 9 {
		t.Fatalf("promised after accept-only log = %d, want 9", got)
	}
}

// quarter is a value a quarter of a segment long: a test that wants its log
// to span segments writes a few.
var quarter = strings.Repeat("q", segmentBytes/4)

// segments counts dir's log segments.
func segments(t *testing.T, dir string) int {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return len(segs)
}

func TestRecoveryIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{Sync: SyncOff})
	for i := 0; i < 200; i++ {
		v := strings.Repeat("x", i%17)
		if i%40 == 0 {
			v = quarter
		}
		w.Accept(uint64(i), 5, v)
		w.Decide(uint64(i), v)
		w.Flush()
	}
	w.Close()
	if n := segments(t, dir); n < 2 {
		t.Fatalf("only %d segment: the log does not span segments", n)
	}
	a := openT(t, dir, Options{Sync: SyncOff})
	stA := a.State()
	a.Close()
	b := openT(t, dir, Options{Sync: SyncOff})
	stB := b.State()
	b.Close()
	if !reflect.DeepEqual(stA, stB) {
		t.Fatal("two recoveries of the same directory disagree")
	}
	if len(stA.Decided) != 200 {
		t.Fatalf("recovered %d decided entries, want 200", len(stA.Decided))
	}
}

func TestTornTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{Sync: SyncOff})
	w.Decide(0, "keep")
	w.Decide(1, "keep2")
	w.Close()

	// Simulate a crash mid-append: a whole record plus a few bytes of
	// the next frame.
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	full := appendFrame(nil, appendRecordPayload(nil, record{typ: recDecide, inst: 2, v: "lost"}))
	if _, err := f.Write(full[:len(full)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2 := openT(t, dir, Options{Sync: SyncOff})
	st := w2.State()
	if len(st.Decided) != 2 {
		t.Fatalf("recovered %d decided entries after torn tail, want 2", len(st.Decided))
	}
	// The tail was physically truncated, so appending and re-reading works.
	w2.Decide(2, "retry")
	w2.Close()
	w3 := openT(t, dir, Options{Sync: SyncOff})
	defer w3.Close()
	if got := len(w3.State().Decided); got != 3 {
		t.Fatalf("after truncate+append recovered %d decided, want 3", got)
	}
}

func TestCorruptMiddleSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{Sync: SyncOff})
	for i := 0; i < 6; i++ {
		w.Decide(uint64(i), quarter)
		w.Flush() // segments rotate as records are written, not as they are buffered
	}
	w.Close()
	if n := segments(t, dir); n < 2 {
		t.Fatalf("only %d segment: none to corrupt in the middle", n)
	}
	// Flip a byte in the first (non-newest) segment.
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Sync: SyncOff}); err == nil {
		t.Fatal("Open succeeded on a corrupt non-newest segment, want error")
	}
}

func TestSnapshotCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{Sync: SyncOff})
	for i := 0; i < 10; i++ {
		w.Decide(uint64(i), "v")
	}
	err := w.Snapshot(&State{
		Promised:  4,
		Ballot:    4,
		SnapIndex: 10,
		SnapCount: 10,
		App:       []byte("app-bytes"),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Post-snapshot tail.
	w.Decide(10, "tail")
	w.Accept(11, 6, "open")
	w.Close()

	// Compaction removed the pre-snapshot segment.
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatalf("pre-snapshot segment survived compaction: %v", err)
	}

	w2 := openT(t, dir, Options{Sync: SyncOff})
	defer w2.Close()
	st := w2.State()
	if st.SnapIndex != 10 || st.SnapCount != 10 || string(st.App) != "app-bytes" {
		t.Fatalf("snapshot fields lost: %+v", st)
	}
	if st.Promised != 6 { // raised by the post-snapshot accept
		t.Fatalf("promised = %d, want 6", st.Promised)
	}
	wantDec := []DecidedRec{{Inst: 10, V: "tail"}}
	if !reflect.DeepEqual(st.Decided, wantDec) {
		t.Fatalf("decided = %+v, want %+v", st.Decided, wantDec)
	}
	wantAcc := []AcceptedRec{{Inst: 11, B: 6, V: "open"}}
	if !reflect.DeepEqual(st.Accepted, wantAcc) {
		t.Fatalf("accepted = %+v, want %+v", st.Accepted, wantAcc)
	}
}

func TestSnapshotAbsorbsRecordsBelowIndex(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{Sync: SyncOff})
	if err := w.Snapshot(&State{SnapIndex: 5, SnapCount: 5}); err != nil {
		t.Fatal(err)
	}
	// A straggler record below the snapshot index must not resurface.
	w.Decide(3, "stale")
	w.Accept(2, 9, "stale")
	w.Close()
	w2 := openT(t, dir, Options{Sync: SyncOff})
	defer w2.Close()
	st := w2.State()
	if len(st.Decided) != 0 || len(st.Accepted) != 0 {
		t.Fatalf("records below SnapIndex resurfaced: %+v", st)
	}
}

func TestGroupCommitAndRotationSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	var fsyncs, appendBytes int
	w := openT(t, dir, Options{
		Sync:       SyncGroup,
		GroupBytes: 64,
		OnFsync:    func(time.Duration) { fsyncs++ },
		OnAppend:   func(n int) { appendBytes += n },
	})
	for i := 0; i < 100; i++ {
		v := "0123456789abcdef"
		if i%20 == 0 {
			v = quarter
		}
		w.Decide(uint64(i), v)
		if i%3 == 2 {
			w.Flush() // turns of three records: several per fsync group, and per segment
		}
	}
	w.Close()
	if n := segments(t, dir); n < 2 {
		t.Fatalf("only %d segment after five records a quarter of one, want rotation", n)
	}
	if fsyncs == 0 {
		t.Fatal("group commit never fsynced")
	}
	if appendBytes == 0 {
		t.Fatal("OnAppend never observed a record")
	}
	var recovered time.Duration
	w2, err := Open(dir, Options{Sync: SyncOff, OnRecover: func(d time.Duration) { recovered = d }})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := len(w2.State().Decided); got != 100 {
		t.Fatalf("recovered %d decided entries across rotated segments, want 100", got)
	}
	if recovered <= 0 {
		t.Fatal("OnRecover never fired")
	}
}

// countingFile is the counting seam: the active segment with its calls
// tallied.
type countingFile struct {
	segFile
	writes, syncs int
}

func (f *countingFile) Write(p []byte) (int, error) { f.writes++; return f.segFile.Write(p) }
func (f *countingFile) Sync() error                 { f.syncs++; return f.segFile.Sync() }

// TestFlushIsOneWriteOneSync: a turn's records cost one write() and, under
// SyncAlways, one fsync — a group commit — however many there are; a
// Flush with nothing appended costs neither.
func TestFlushIsOneWriteOneSync(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{Sync: SyncAlways})
	cf := &countingFile{segFile: w.f}
	w.f = cf
	for i := 0; i < 16; i++ {
		w.Accept(uint64(i), 7, "0123456789abcdef")
	}
	if cf.writes != 0 || cf.syncs != 0 {
		t.Fatalf("appends alone made %d writes and %d fsyncs, want none before Flush", cf.writes, cf.syncs)
	}
	w.Flush()
	w.Flush()
	if cf.writes != 1 || cf.syncs != 1 {
		t.Fatalf("16 appends + Flush made %d writes and %d fsyncs, want 1 and 1", cf.writes, cf.syncs)
	}
	// kill -9: the WAL is abandoned, not closed. What was flushed is there.
	w2 := openT(t, dir, Options{Sync: SyncOff})
	defer w2.Close()
	if got := len(w2.State().Accepted); got != 16 {
		t.Fatalf("recovered %d votes after Flush without Close, want 16", got)
	}
}

// TestUnflushedRecordsDieWithTheProcess is the other half of the crash
// argument: a record still in the buffer at kill -9 was never on disk —
// which is why nothing that reveals it may leave before Flush.
func TestUnflushedRecordsDieWithTheProcess(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{Sync: SyncOff})
	w.Accept(0, 7, "flushed")
	w.Flush()
	w.Accept(1, 7, "buffered")
	// Abandoned here.
	w2 := openT(t, dir, Options{Sync: SyncOff})
	defer w2.Close()
	st := w2.State()
	if len(st.Accepted) != 1 || st.Accepted[0].V != "flushed" {
		t.Fatalf("recovered %+v, want only the flushed vote", st.Accepted)
	}
}

// TestSnapshotKeepsBufferedRecordsBelowIt: records buffered when a
// checkpoint is taken land in the segment the checkpoint seals, not after
// it — a stale vote replayed over the checkpoint would resurrect state it
// had absorbed.
func TestSnapshotKeepsBufferedRecordsBelowIt(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{Sync: SyncOff})
	w.Accept(5, 7, "old") // above the index: replayed if it lands after the checkpoint
	if err := w.Snapshot(&State{Promised: 9, SnapIndex: 1, SnapCount: 1}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2 := openT(t, dir, Options{Sync: SyncOff})
	defer w2.Close()
	if st := w2.State(); len(st.Accepted) != 0 || st.Promised != 9 {
		t.Fatalf("recovered %+v, want the checkpoint alone", st)
	}
}
