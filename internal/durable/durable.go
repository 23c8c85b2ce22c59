// Package durable persists the safety-critical consensus state — the
// acceptor's promises and accepts, decided log entries, and the
// proposer's ballot — so a process can be killed (kill -9 included) and
// restarted without ever voting against its past self. The design is the
// classic write-ahead log + snapshot pair:
//
//   - every state change that must survive a crash is appended to a
//     segmented WAL as a length-prefixed, CRC-framed varint record, and
//     the records of one turn of the node loop are written out together
//     (Flush) before any message that reveals them leaves the node;
//   - a snapshot absorbs the applied prefix (plus an opaque application
//     payload) into a single checkpoint file, after which older WAL
//     segments are deleted;
//   - recovery = load the newest valid snapshot, replay the WAL tail,
//     truncate a torn tail if the crash landed mid-write.
//
// Consumers program against the Store interface; Nop is the in-memory
// default that keeps simulation paths allocation-free and byte-identical
// (no records, no files, State() == nil).
//
// The package deliberately depends only on the standard library: the
// wire registry imports the consensus automatons, which hang their
// Config.Store on this package, so reusing wire's Encoder/Decoder here
// would close an import cycle. The record codec below follows the same
// uvarint + CRC32C framing conventions instead.
package durable

// Store is the persistence hook set for a consensus automaton. The three
// safety-critical points are Promise/Accept (acceptor votes) and Decide
// (learned log entries); Ballot keeps the proposer from reusing a ballot
// number it already attached a value to before the crash. The four
// record calls may buffer; what they recorded is durable by the time the
// next Flush returns, so the caller flushes before it lets the
// corresponding protocol messages out — once per turn (node.TurnEnd), and
// after each record made from outside any turn.
//
// Methods take scalars and strings so the no-op implementation costs
// nothing on the hot path (no []byte conversions, no boxing).
type Store interface {
	// Promise records that the acceptor promised ballot b (and will
	// never again vote below it).
	Promise(b uint64)
	// Ballot records that the proposer owns ballot b; after restart the
	// proposer must pick a strictly higher one.
	Ballot(b uint64)
	// Accept records an acceptor vote for value v at (inst, b). An
	// accept implies a promise at b.
	Accept(inst, b uint64, v string)
	// Decide records that instance inst decided value v.
	Decide(inst uint64, v string)
	// Flush makes every record so far durable: one write for all of
	// them, one sync where the store's policy asks for it.
	Flush()
	// Snapshot absorbs a full checkpoint of the caller's state; on
	// success the store may discard all records the checkpoint covers.
	Snapshot(st *State) error
	// State returns the state recovered when the store was opened, or
	// nil when there was nothing on disk (or the store is Nop). The
	// caller installs it once at startup.
	State() *State
	// Close releases the store. A final flush is implied.
	Close() error
}

// AcceptedRec is one undecided acceptor vote in a recovered State.
type AcceptedRec struct {
	Inst uint64
	B    uint64
	V    string
}

// DecidedRec is one decided log entry in a recovered State.
type DecidedRec struct {
	Inst uint64
	V    string
}

// State is a full checkpoint of the durable consensus state: what a node
// hands to Snapshot, and what it gets back from State() after recovery
// (snapshot merged with the replayed WAL tail).
type State struct {
	// Promised is the acceptor's highest promised ballot.
	Promised uint64
	// Ballot is the highest ballot this node ever owned as proposer.
	Ballot uint64
	// SnapIndex is the first instance NOT absorbed by the snapshot:
	// instances below it are folded into App and carry no log entries.
	SnapIndex uint64
	// SnapCount is the number of commands applied when the snapshot was
	// taken (the applier's progress metric).
	SnapCount uint64
	// Accepted holds undecided acceptor votes, ascending by Inst.
	// Votes for decided instances are folded into Decided.
	Accepted []AcceptedRec
	// Decided holds decided entries at/above SnapIndex, ascending.
	Decided []DecidedRec
	// App is the opaque application snapshot (rsm.Config.SnapshotState).
	App []byte
}

// Nop is the in-memory default store: every hook is free, nothing is
// recovered. Simulations and benchmarks run against it so the hot path
// stays exactly as it was before durability existed.
var Nop Store = nopStore{}

type nopStore struct{}

func (nopStore) Promise(uint64)                {}
func (nopStore) Ballot(uint64)                 {}
func (nopStore) Accept(uint64, uint64, string) {}
func (nopStore) Decide(uint64, string)         {}
func (nopStore) Flush()                        {}
func (nopStore) Snapshot(*State) error         { return nil }
func (nopStore) State() *State                 { return nil }
func (nopStore) Close() error                  { return nil }
