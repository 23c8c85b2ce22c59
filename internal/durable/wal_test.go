package durable

import (
	"errors"
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

// syncLog is the counting seam for directory syncs: every Sync of a file
// or directory the WAL opens, in order. A Sync of the path named by fail
// reports an error instead.
type syncLog struct {
	syncs []string
	fail  string
}

var errSyncRefused = errors.New("sync refused")

type loggedFile struct {
	segFile
	name string
	log  *syncLog
}

func (f *loggedFile) Sync() error {
	f.log.syncs = append(f.log.syncs, f.name)
	if f.name == f.log.fail {
		return errSyncRefused
	}
	return f.segFile.Sync()
}

// logSyncs swaps openFile, for the rest of t, for one that logs each Sync
// by the path relative to root.
func logSyncs(t *testing.T, root string) *syncLog {
	l := &syncLog{}
	open := openFile
	openFile = func(name string, flag int) (segFile, error) {
		f, err := open(name, flag)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, name)
		if err != nil {
			t.Fatal(err)
		}
		return &loggedFile{segFile: f, name: rel, log: l}, nil
	}
	t.Cleanup(func() { openFile = open })
	return l
}

// expect fails t unless the syncs logged since the last expect are want.
func (l *syncLog) expect(t *testing.T, what string, want ...string) {
	t.Helper()
	got := l.syncs
	l.syncs = nil
	if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("%s synced %q, want %q", what, got, want)
	}
}

// walRoot returns a temporary directory holding an empty directory "wal".
func walRoot(t *testing.T) string {
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	return root
}

// TestDirectoryEntryDurableAtFirstFsync: Open syncs nothing; a segment's
// first fsync syncs the file and then the directory holding it (and the
// parents of any directory Open made), exactly once; later fsyncs sync the
// file alone.
func TestDirectoryEntryDurableAtFirstFsync(t *testing.T) {
	seg := func(seq uint64) string { return filepath.Join("wal", segName(seq)) }

	t.Run("always/fresh-dirs", func(t *testing.T) {
		root := t.TempDir()
		l := logSyncs(t, root)
		w := openT(t, filepath.Join(root, "a", "wal"), Options{Sync: SyncAlways})
		defer w.Close()
		l.expect(t, "Open")
		w.Decide(0, "v")
		w.Flush()
		l.expect(t, "first Flush", filepath.Join("a", seg(1)), ".", "a", filepath.Join("a", "wal"))
		w.Decide(1, "v")
		w.Flush()
		l.expect(t, "second Flush", filepath.Join("a", seg(1)))
	})

	t.Run("group", func(t *testing.T) {
		root := walRoot(t)
		l := logSyncs(t, root)
		w := openT(t, filepath.Join(root, "wal"), Options{Sync: SyncGroup, GroupBytes: 64})
		defer w.Close()
		l.expect(t, "Open")
		w.Decide(0, "v")
		w.Flush()
		l.expect(t, "a Flush below the group")
		w.Decide(1, strings.Repeat("v", 64))
		w.Flush()
		l.expect(t, "first group", seg(1), "wal")
		w.Decide(2, strings.Repeat("v", 64))
		w.Flush()
		l.expect(t, "second group", seg(1))
	})

	t.Run("always/rotate", func(t *testing.T) {
		root := walRoot(t)
		l := logSyncs(t, root)
		w := openT(t, filepath.Join(root, "wal"), Options{Sync: SyncAlways})
		defer w.Close()
		l.expect(t, "Open")
		for i := 0; i < 4; i++ { // the fourth quarter fills segment 1
			w.Decide(uint64(i), quarter)
			w.Flush()
			if i == 0 {
				l.expect(t, "first Flush", seg(1), "wal")
			} else {
				l.expect(t, "later Flush", seg(1))
			}
		}
		if w.seq != 2 {
			t.Fatalf("active segment %d after four quarters, want 2", w.seq)
		}
		for i := 4; i < 6; i++ {
			w.Decide(uint64(i), "v")
			w.Flush()
			if i == 4 {
				l.expect(t, "first Flush after rotation", seg(2), "wal")
			} else {
				l.expect(t, "later Flush after rotation", seg(2))
			}
		}
	})

	t.Run("group/rotate-seal-and-close", func(t *testing.T) {
		root := walRoot(t)
		l := logSyncs(t, root)
		w := openT(t, filepath.Join(root, "wal"), Options{Sync: SyncGroup, GroupBytes: 2 * segmentBytes})
		for i := 0; i < 4; i++ {
			w.Decide(uint64(i), quarter)
			w.Flush()
		}
		l.expect(t, "filling segment 1, then its seal", seg(1), "wal")
		w.Decide(4, "v")
		w.Flush()
		l.expect(t, "a Flush below the group")
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		l.expect(t, "Close", seg(2), "wal")
	})

	t.Run("reopen-before-first-fsync", func(t *testing.T) {
		root := walRoot(t)
		dir := filepath.Join(root, "wal")
		l := logSyncs(t, root)
		w := openT(t, dir, Options{Sync: SyncGroup})
		w.Decide(0, "v")
		w.Flush()
		l.expect(t, "Open and a Flush below the group")
		// kill -9 before the first fsync: abandoned, not closed.
		w2 := openT(t, dir, Options{Sync: SyncAlways})
		defer w2.Close()
		l.expect(t, "reopen")
		w2.Decide(1, "v")
		w2.Flush()
		l.expect(t, "first Flush after reopen", seg(1), "wal")
		w2.Decide(2, "v")
		w2.Flush()
		l.expect(t, "second Flush after reopen", seg(1))
		if got := len(w2.State().Decided); got != 1 {
			t.Fatalf("reopen recovered %d decided entries, want 1", got)
		}
	})

	t.Run("snapshot", func(t *testing.T) {
		root := walRoot(t)
		l := logSyncs(t, root)
		w := openT(t, filepath.Join(root, "wal"), Options{Sync: SyncAlways})
		defer w.Close()
		w.Decide(0, "v")
		w.Flush()
		l.expect(t, "Open and first Flush", seg(1), "wal")
		w.Decide(1, "v") // buffered: the snapshot's rotation writes and seals it
		if err := w.Snapshot(&State{SnapIndex: 2, SnapCount: 2}); err != nil {
			t.Fatal(err)
		}
		l.expect(t, "Snapshot", seg(1), filepath.Join("wal", snapName(2)+".tmp"), "wal")
		w.Decide(2, "v")
		w.Flush()
		l.expect(t, "first Flush after Snapshot", seg(2))
	})
}

// TestFailedDirSync: a directory sync that fails on a record's way to disk
// panics, as a failed file fsync does; one that fails after a checkpoint's
// rename fails the Snapshot, which then prunes nothing.
func TestFailedDirSync(t *testing.T) {
	t.Run("flush", func(t *testing.T) {
		root := t.TempDir()
		l := logSyncs(t, root)
		l.fail = "wal"
		w := openT(t, filepath.Join(root, "wal"), Options{Sync: SyncAlways})
		w.Decide(0, "v")
		defer func() {
			r, _ := recover().(string)
			if !strings.HasPrefix(r, "durable: wal dir sync: ") || !strings.Contains(r, errSyncRefused.Error()) {
				t.Fatalf("Flush with a failing directory sync panicked with %q", r)
			}
		}()
		w.Flush()
		t.Fatal("Flush with a failing directory sync returned")
	})

	t.Run("snapshot", func(t *testing.T) {
		root := walRoot(t)
		dir := filepath.Join(root, "wal")
		l := logSyncs(t, root)
		w := openT(t, dir, Options{Sync: SyncAlways})
		defer w.Close()
		w.Decide(0, "v")
		w.Flush()
		l.fail = "wal"
		err := w.Snapshot(&State{SnapIndex: 1, SnapCount: 1})
		if !errors.Is(err, errSyncRefused) {
			t.Fatalf("Snapshot with a failing directory sync returned %v", err)
		}
		if n := segments(t, dir); n != 2 {
			t.Fatalf("%d segments after a failed Snapshot, want both kept", n)
		}
	})
}

// TestCheckpointAboveEverySegment: a Snapshot's new segment and its
// checkpoint become durable at one directory sync, so a power failure may
// keep the rename and lose the segment. Open then starts the segment the
// checkpoint names rather than appending to one it is about to prune.
func TestCheckpointAboveEverySegment(t *testing.T) {
	dir := t.TempDir()
	w := openT(t, dir, Options{Sync: SyncOff})
	w.Decide(0, "v")
	if err := w.Snapshot(&State{SnapIndex: 1, SnapCount: 1}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Put back segment 1, as if the prune never ran, and lose segment 2.
	if err := os.Rename(filepath.Join(dir, segName(2)), filepath.Join(dir, segName(1))); err != nil {
		t.Fatal(err)
	}
	w2 := openT(t, dir, Options{Sync: SyncOff})
	w2.Decide(1, "after")
	w2.Close()
	w3 := openT(t, dir, Options{Sync: SyncOff})
	defer w3.Close()
	if st := w3.State(); len(st.Decided) != 1 || st.Decided[0].V != "after" {
		t.Fatalf("recovered %+v, want the record appended after the reopen", st.Decided)
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
