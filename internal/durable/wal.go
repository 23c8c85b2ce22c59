package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy selects when the WAL calls fsync.
type SyncPolicy int

const (
	// SyncAlways fsyncs on every Flush, once for all the records it
	// writes (a group commit the size of the caller's turn): no
	// acknowledged vote is ever lost, even to power failure. The slowest
	// policy.
	SyncAlways SyncPolicy = iota
	// SyncGroup fsyncs once per Options.GroupBytes of flushed records:
	// bounded loss on power failure, none on kill -9.
	SyncGroup
	// SyncOff never fsyncs. Records still survive kill -9 — Flush
	// write()s them into the page cache before returning, and the
	// kernel outlives the process — but not machine or power failure.
	// The right mode for sims, soaks, and benchmarks.
	SyncOff
)

// segmentBytes is the size past which a Flush rotates the segment.
const segmentBytes = 4 << 20

// Options tunes a WAL. The zero value is safe: per-record fsync.
type Options struct {
	Sync SyncPolicy
	// GroupBytes is the SyncGroup flush threshold (default 64 KiB).
	GroupBytes int
	// OnAppend, when set, observes the framed size of every appended
	// record (telemetry: WAL append bytes).
	OnAppend func(bytes int)
	// OnFsync, when set, observes the latency of every fsync.
	OnFsync func(d time.Duration)
	// OnRecover, when set, observes how long Open spent loading the
	// snapshot and replaying the tail.
	OnRecover func(d time.Duration)
}

func (o *Options) fill() {
	if o.GroupBytes <= 0 {
		o.GroupBytes = 64 << 10
	}
}

// WAL is a disk-backed Store: a directory of numbered log segments plus
// at most one checkpoint file. Records are framed into a memory buffer
// as they are appended and reach the segment when Flush writes the whole
// buffer at once. Concurrency: the consensus automaton is
// single-threaded, but a mutex guards against Close/Snapshot racing an
// append from another goroutine; the lock is uncontended in practice.
//
// Write errors panic. Automaton callbacks cannot return errors, and a
// replica that cannot persist a vote must crash-stop rather than send
// the message and later deny the vote — panicking is the safe response.
type WAL struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       segFile // active segment
	seq     uint64  // active segment number
	size    int64   // bytes in the active segment
	dirty   int     // bytes written since the last fsync (SyncGroup)
	payload []byte  // reused encode buffer
	buf     []byte  // framed records appended since the last Flush
	st      *State  // state recovered at Open; nil for a fresh dir
	// unsynced lists the directories the next fsync syncs after the file,
	// outermost first: the parents of the directories Open made, then dir
	// while its entry for the active segment may not be durable.
	unsynced []string
}

var _ Store = (*WAL)(nil)

// segFile is what the WAL asks of a file or directory it syncs; an
// *os.File, except where a test counts or fails the calls.
type segFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// openFile opens every file and directory the WAL syncs: segments,
// checkpoints and the directories that hold them. A test swaps it.
var openFile = func(name string, flag int) (segFile, error) { return os.OpenFile(name, flag, 0o644) }

func segName(seq uint64) string  { return fmt.Sprintf("wal-%016x.seg", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x.ckpt", seq) }

// parseSeq extracts the sequence number from a segment or snapshot file
// name, returning ok=false for anything else.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	seq, err := strconv.ParseUint(mid, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Open recovers a WAL directory: newest valid checkpoint, ordered replay
// of the segments it does not cover, torn-tail truncation on the newest
// segment. A missing or empty directory yields a fresh WAL whose State()
// is nil. Corruption anywhere except the newest segment's tail is an
// error — earlier records were acknowledged as durable and must parse.
func Open(dir string, opts Options) (*WAL, error) {
	opts.fill()
	start := time.Now()
	parents, err := mkdirAll(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", dir, err)
	}
	var segs, snaps []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name)) // interrupted snapshot write
			continue
		}
		if seq, ok := parseSeq(name, "wal-", ".seg"); ok {
			segs = append(segs, seq)
		} else if seq, ok := parseSeq(name, "snap-", ".ckpt"); ok {
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	// Newest loadable checkpoint wins; a checkpoint that fails its CRC
	// is skipped in favor of an older one (the rename was atomic, so
	// this only happens to files damaged after the fact).
	var snap *State
	var replayFrom uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		st, err := loadSnapshot(filepath.Join(dir, snapName(snaps[i])))
		if err == nil {
			snap, replayFrom = st, snaps[i]
			break
		}
	}

	rp := newReplay(snap)
	// Whichever segment ends up active, its entry in dir may not be
	// durable: a fresh one's is not, and a reopened one's creator may have
	// died before its first fsync.
	w := &WAL{dir: dir, opts: opts, unsynced: append(parents, dir)}
	var tail int64 // bytes kept in the newest segment replayed
	for i, seq := range segs {
		if seq < replayFrom {
			continue
		}
		path := filepath.Join(dir, segName(seq))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("durable: open %s: %w", dir, err)
		}
		last := i == len(segs)-1
		good, err := rp.run(data)
		tail = int64(len(data))
		if err != nil {
			if !last {
				return nil, fmt.Errorf("durable: %s: record %d bytes in: %w", segName(seq), good, err)
			}
			// Torn tail: the crash landed mid-append. Everything after
			// the last whole record was never acknowledged; cut it off.
			if err := os.Truncate(path, int64(good)); err != nil {
				return nil, fmt.Errorf("durable: truncate torn tail of %s: %w", segName(seq), err)
			}
			tail = int64(good)
		}
	}
	w.st = rp.finalize()

	// Reopen (or create) the active segment for appending. A newest
	// segment below the checkpoint is one the checkpoint covers: the
	// segment its Snapshot created was lost with its unsynced entry.
	switch {
	case len(segs) > 0 && segs[len(segs)-1] >= replayFrom:
		w.seq = segs[len(segs)-1]
		f, err := openFile(filepath.Join(dir, segName(w.seq)), os.O_WRONLY|os.O_APPEND)
		if err != nil {
			return nil, fmt.Errorf("durable: open %s: %w", dir, err)
		}
		w.f, w.size = f, tail
	default:
		w.seq = replayFrom
		if w.seq == 0 {
			w.seq = 1
		}
		if err := w.createSegment(); err != nil {
			return nil, err
		}
	}

	// Best-effort prune of files the chosen checkpoint superseded (a
	// crash between checkpoint rename and deletion leaves them behind).
	for _, seq := range segs {
		if seq < replayFrom {
			os.Remove(filepath.Join(dir, segName(seq)))
		}
	}
	for _, seq := range snaps {
		if seq < replayFrom {
			os.Remove(filepath.Join(dir, snapName(seq)))
		}
	}

	if opts.OnRecover != nil {
		opts.OnRecover(time.Since(start))
	}
	return w, nil
}

// createSegment makes the file for w.seq. Its directory entry becomes
// durable at the segment's first fsync, not here: until a record is in it
// there is nothing a power failure could lose.
func (w *WAL) createSegment() error {
	f, err := openFile(filepath.Join(w.dir, segName(w.seq)), os.O_WRONLY|os.O_CREATE|os.O_EXCL)
	if err != nil {
		return fmt.Errorf("durable: create segment: %w", err)
	}
	w.f, w.size = f, 0
	if len(w.unsynced) == 0 {
		w.unsynced = append(w.unsynced, w.dir)
	}
	return nil
}

// State returns the state recovered by Open, nil for a fresh directory.
func (w *WAL) State() *State { return w.st }

func (w *WAL) Promise(b uint64) { w.append(record{typ: recPromise, b: b}) }
func (w *WAL) Ballot(b uint64)  { w.append(record{typ: recBallot, b: b}) }
func (w *WAL) Accept(inst, b uint64, v string) {
	w.append(record{typ: recAccept, inst: inst, b: b, v: v})
}
func (w *WAL) Decide(inst uint64, v string) { w.append(record{typ: recDecide, inst: inst, v: v}) }

func (w *WAL) append(rec record) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.payload = appendRecordPayload(w.payload[:0], rec)
	before := len(w.buf)
	w.buf = appendFrame(w.buf, w.payload)
	if w.opts.OnAppend != nil {
		w.opts.OnAppend(len(w.buf) - before)
	}
}

// Flush writes every record appended since the last one with a single
// write() and syncs as the policy says: the point at which they are
// durable. Nothing appended, nothing done.
func (w *WAL) Flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flush()
	if w.size >= segmentBytes {
		if err := w.rotate(); err != nil {
			panic("durable: wal rotate: " + err.Error())
		}
	}
}

// flush is Flush less the rotation. Callers hold w.mu.
func (w *WAL) flush() {
	n := len(w.buf)
	if n == 0 {
		return
	}
	if _, err := w.f.Write(w.buf); err != nil {
		panic("durable: wal write: " + err.Error())
	}
	w.buf = w.buf[:0]
	w.size += int64(n)
	w.dirty += n
	if w.opts.Sync == SyncAlways || (w.opts.Sync == SyncGroup && w.dirty >= w.opts.GroupBytes) {
		w.fsync()
	}
}

// fsync makes the active segment durable: the file, then the directory
// entries it still waits for. Callers hold w.mu.
func (w *WAL) fsync() {
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		panic("durable: wal fsync: " + err.Error())
	}
	if err := w.syncDirs(); err != nil {
		panic("durable: wal dir sync: " + err.Error())
	}
	w.dirty = 0
	if w.opts.OnFsync != nil {
		w.opts.OnFsync(time.Since(start))
	}
}

// rotate seals the active segment, buffered records included, and starts
// the next one, whose directory entry waits for its first fsync. Callers
// hold w.mu.
func (w *WAL) rotate() error {
	w.flush()
	if w.opts.Sync != SyncOff && w.dirty > 0 {
		w.fsync()
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.seq++
	return w.createSegment()
}

// Snapshot writes a checkpoint that absorbs st and compacts the log:
// rotate to a fresh segment S, durably write snap-S (tmp + rename, then a
// directory sync that makes S's entry durable too), then delete every
// segment and checkpoint below S. Recovery replays exactly the records
// appended after this call. A failed snapshot leaves the old checkpoint
// and segments in place — the WAL keeps growing but loses nothing.
func (w *WAL) Snapshot(st *State) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.rotate(); err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	w.payload = appendStatePayload(w.payload[:0], st)
	frame := appendFrame(nil, w.payload)
	tmp := filepath.Join(w.dir, snapName(w.seq)+".tmp")
	f, err := openFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	if _, err := f.Write(frame); err == nil && w.opts.Sync != SyncOff {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, snapName(w.seq))); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	// One directory sync makes the rename durable and, since rotate left
	// dir in w.unsynced, S's entry too.
	if w.opts.Sync != SyncOff {
		if err := w.syncDirs(); err != nil {
			return fmt.Errorf("durable: snapshot: %w", err)
		}
	}
	// The checkpoint is durable; everything below it is garbage.
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil // compaction is best-effort; next Open prunes
	}
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "wal-", ".seg"); ok && seq < w.seq {
			os.Remove(filepath.Join(w.dir, e.Name()))
		}
		if seq, ok := parseSeq(e.Name(), "snap-", ".ckpt"); ok && seq < w.seq {
			os.Remove(filepath.Join(w.dir, e.Name()))
		}
	}
	return nil
}

// Close flushes and releases the active segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	w.flush()
	if w.opts.Sync != SyncOff && w.dirty > 0 {
		w.fsync()
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// syncDirs syncs the directories in w.unsynced, dropping each once it is
// synced. Callers hold w.mu.
func (w *WAL) syncDirs() error {
	for len(w.unsynced) > 0 {
		d, err := openFile(w.unsynced[0], os.O_RDONLY)
		if err != nil {
			return err
		}
		err = d.Sync()
		d.Close() // opened to sync, never written: its error changes nothing
		if err != nil {
			return err
		}
		w.unsynced = w.unsynced[1:]
	}
	return nil
}

// mkdirAll is os.MkdirAll that also returns the parent of each directory
// it made, outermost first: until those are synced, a power failure can
// lose the directories and every segment in them.
func mkdirAll(dir string) ([]string, error) {
	var parents []string
	for d := filepath.Clean(dir); ; {
		p := filepath.Dir(d)
		if _, err := os.Stat(d); p == d || !errors.Is(err, os.ErrNotExist) {
			break
		}
		parents = append([]string{p}, parents...)
		d = p
	}
	return parents, os.MkdirAll(dir, 0o755)
}
