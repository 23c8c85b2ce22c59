package wire

import (
	"fmt"

	"repro/internal/consensus"
	"repro/internal/consensus/group"
	"repro/internal/consensus/rsm"
	"repro/internal/core"
	"repro/internal/detector/alltoall"
	"repro/internal/detector/source"
	"repro/internal/node"
	"repro/internal/tracing"
)

// Type codes. Codes are part of the wire format: append only, never
// renumber. The band at and above 0xF0 is reserved for the frame marker
// (see wire.go).
const (
	codeCoreLeader byte = iota + 1
	codeCoreAccuse
	codeAllToAllAlive
	codeSourceAlive
)

// Codes 5–17 carried the synod and ct kinds, which run only in the
// simulator and never cross a wire. They are retired: a frame carrying one
// is refused as unknown, and no kind takes one again.
const (
	codeRSMRequest byte = iota + 18
	codeRSMPrepare
	codeRSMPromise
	codeRSMNack
	codeRSMAccept
	codeRSMAccepted
	codeRSMDecide
	codeRSMLearn
	codeCoreRebuff
	codeRSMLeaseGrant
	codeRSMLeaseAck
	codeRSMReadReq
	codeRSMReadReply
	codeGroupWrap
	codeTraceWrap
)

// reg registers kind with typed encode/decode functions, folding the
// concrete-type assertion into the adapter. A read that fails latches in
// the Decoder, so most kinds decode as one composite literal, whose calls
// Go evaluates left to right — in wire order.
func reg[M node.Message](c *Codec, code byte, kind string, enc func(*Encoder, M), dec func(*Decoder) M) {
	c.Register(code, kind,
		func(e *Encoder, m node.Message) {
			if msg, ok := m.(M); ok {
				enc(e, msg)
			} else {
				e.Fail(fmt.Errorf("wire: encoder for %s got %T", kind, m))
			}
		},
		func(d *Decoder) node.Message { return dec(d) })
}

// NewCodec returns a codec with every protocol message in this repository
// registered.
func NewCodec() *Codec {
	c := NewEmptyCodec()
	reg(c, codeCoreLeader, core.KindLeader,
		func(e *Encoder, m core.LeaderMsg) { e.U64(m.Epoch) },
		func(d *Decoder) core.LeaderMsg { return core.LeaderMsg{Epoch: d.U64()} })
	reg(c, codeCoreAccuse, core.KindAccuse,
		func(e *Encoder, m core.AccuseMsg) { e.U64(m.Epoch) },
		func(d *Decoder) core.AccuseMsg { return core.AccuseMsg{Epoch: d.U64()} })
	reg(c, codeCoreRebuff, core.KindRebuff,
		func(e *Encoder, m core.RebuffMsg) { e.U64(m.Epoch) },
		func(d *Decoder) core.RebuffMsg { return core.RebuffMsg{Epoch: d.U64()} })
	reg(c, codeAllToAllAlive, alltoall.KindAlive,
		func(*Encoder, alltoall.AliveMsg) {},
		func(*Decoder) alltoall.AliveMsg { return alltoall.AliveMsg{} })
	reg(c, codeSourceAlive, source.KindAlive,
		func(e *Encoder, m source.AliveMsg) { e.U64s(m.Counters) },
		func(d *Decoder) source.AliveMsg { return source.AliveMsg{Counters: d.U64s()} })
	registerRSM(c)
	registerWrappers(c)
	return c
}

// registerWrappers registers the two wrappers, GROUP (multi-group sharded
// consensus, DESIGN.md §15: a group id) and TRACE (causal tracing,
// DESIGN.md §8: a trace id and a parent span id). A wrapper's own fields
// come first, then the message it carries — type code and fields — nested
// in place with no intermediate buffer. A wrapper refuses to carry itself
// and every wrapper it must stay inside, on encode and on decode: the
// group envelope is always outermost (the demux must see its own tag
// first), so a traced sharded message is GROUP(TRACE(inner)) and TRACE
// refuses GROUP. That bounds decoder recursion at two levels.
//
// Neither kind is negotiated: a node built before it fails strict decoding
// of its frames and (on TCP) drops the connection, so enabling groups or
// tracing is a cluster-wide atomic upgrade. Messages sent bare encode
// exactly as before either existed.
func registerWrappers(c *Codec) {
	reg(c, codeGroupWrap, group.KindGroup,
		func(e *Encoder, m group.Msg) {
			e.Int(m.Group)
			c.encode(e, m.Inner, codeGroupWrap)
		},
		func(d *Decoder) group.Msg {
			return group.Msg{Group: d.Int(), Inner: c.decode(d, codeGroupWrap)}
		})
	reg(c, codeTraceWrap, tracing.KindTrace,
		func(e *Encoder, m tracing.Wrap) {
			e.U64(uint64(m.Ctx.Trace))
			e.U64(uint64(m.Ctx.Span))
			c.encode(e, m.Inner, codeTraceWrap, codeGroupWrap)
		},
		func(d *Decoder) tracing.Wrap {
			ctx := tracing.Context{Trace: tracing.TraceID(d.U64()), Span: tracing.SpanID(d.U64())}
			return tracing.Wrap{Ctx: ctx, Inner: c.decode(d, codeTraceWrap, codeGroupWrap)}
		})
}

func registerRSM(c *Codec) {
	reg(c, codeRSMRequest, rsm.KindRequest,
		func(e *Encoder, m rsm.RequestMsg) { e.Str(string(m.V)) },
		func(d *Decoder) rsm.RequestMsg { return rsm.RequestMsg{V: consensus.Value(d.Str())} })
	reg(c, codeRSMPrepare, rsm.KindPrepare,
		func(e *Encoder, m rsm.PrepareMsg) { e.U64(uint64(m.B)) },
		func(d *Decoder) rsm.PrepareMsg { return rsm.PrepareMsg{B: consensus.Ballot(d.U64())} })
	reg(c, codeRSMPromise, rsm.KindPromise,
		func(e *Encoder, m rsm.PromiseMsg) {
			e.U64(uint64(m.B))
			e.U64(uint64(len(m.Entries)))
			for _, ent := range m.Entries {
				e.Int(ent.Inst)
				e.U64(uint64(ent.AccB))
				e.Str(string(ent.AccV))
			}
		},
		func(d *Decoder) rsm.PromiseMsg {
			m := rsm.PromiseMsg{B: consensus.Ballot(d.U64())}
			// An entry is an instance, a ballot and a string's length
			// prefix at the least.
			if n := d.Len(3); n > 0 {
				m.Entries = make([]rsm.PromEntry, n)
				for i := range m.Entries {
					m.Entries[i] = rsm.PromEntry{Inst: d.Int(), AccB: consensus.Ballot(d.U64()), AccV: consensus.Value(d.Str())}
				}
			}
			return m
		})
	reg(c, codeRSMNack, rsm.KindNack,
		func(e *Encoder, m rsm.NackMsg) { e.U64(uint64(m.B)); e.U64(uint64(m.Promised)) },
		func(d *Decoder) rsm.NackMsg {
			return rsm.NackMsg{B: consensus.Ballot(d.U64()), Promised: consensus.Ballot(d.U64())}
		})

	// The trailing LeaseSeq on ACCEPT/ACCEPTED (PR 7) is not negotiated:
	// strict decoding makes pre-lease and post-lease frames mutually
	// unreadable, so clusters upgrade atomically across that boundary
	// (DESIGN.md §13).
	reg(c, codeRSMAccept, rsm.KindAccept,
		func(e *Encoder, m *rsm.AcceptMsg) {
			e.U64(uint64(m.B))
			e.Int(m.Inst)
			e.Str(string(m.V))
			e.Int(m.CommitUpTo)
			e.Int(m.MinDone)
			e.U64(m.LeaseSeq)
		},
		func(d *Decoder) *rsm.AcceptMsg {
			return slot(d, codeRSMAccept, rsm.AcceptMsg{B: consensus.Ballot(d.U64()), Inst: d.Int(), V: consensus.Value(d.Str()),
				CommitUpTo: d.Int(), MinDone: d.Int(), LeaseSeq: d.U64()})
		})
	reg(c, codeRSMAccepted, rsm.KindAccepted,
		func(e *Encoder, m *rsm.AcceptedMsg) {
			e.U64(uint64(m.B))
			e.Int(m.Inst)
			e.Int(m.Done)
			e.U64(m.LeaseSeq)
		},
		func(d *Decoder) *rsm.AcceptedMsg {
			return slot(d, codeRSMAccepted, rsm.AcceptedMsg{B: consensus.Ballot(d.U64()), Inst: d.Int(), Done: d.Int(), LeaseSeq: d.U64()})
		})

	// DECIDE has two forms under one code, told apart by the leading
	// ballot (PR 13, not negotiated — like LeaseSeq, clusters upgrade
	// atomically across it; DESIGN.md "commit index"): a non-zero ballot
	// is the value-free commit index and ends after Inst; NoBallot is the
	// by-value repair reply and carries the value.
	reg(c, codeRSMDecide, rsm.KindDecide,
		func(e *Encoder, m *rsm.DecideMsg) {
			e.U64(uint64(m.B))
			e.Int(m.Inst)
			switch {
			case m.B == consensus.NoBallot:
				e.Str(string(m.V))
			case m.V != consensus.NoValue:
				e.Fail(fmt.Errorf("wire: %s commit index at ballot %v carries a value", rsm.KindDecide, m.B))
			}
		},
		func(d *Decoder) *rsm.DecideMsg {
			m := rsm.DecideMsg{B: consensus.Ballot(d.U64()), Inst: d.Int()}
			if m.B == consensus.NoBallot {
				m.V = consensus.Value(d.Str())
			}
			return slot(d, codeRSMDecide, m)
		})
	reg(c, codeRSMLearn, rsm.KindLearn,
		func(e *Encoder, m rsm.LearnMsg) { e.Int(m.FirstGap) },
		func(d *Decoder) rsm.LearnMsg { return rsm.LearnMsg{FirstGap: d.Int()} })
	reg(c, codeRSMLeaseGrant, rsm.KindLeaseGrant,
		func(e *Encoder, m rsm.LeaseGrantMsg) { e.U64(uint64(m.B)); e.U64(m.Seq) },
		func(d *Decoder) rsm.LeaseGrantMsg {
			return rsm.LeaseGrantMsg{B: consensus.Ballot(d.U64()), Seq: d.U64()}
		})
	reg(c, codeRSMLeaseAck, rsm.KindLeaseAck,
		func(e *Encoder, m rsm.LeaseAckMsg) { e.U64(uint64(m.B)); e.U64(m.Seq) },
		func(d *Decoder) rsm.LeaseAckMsg { return rsm.LeaseAckMsg{B: consensus.Ballot(d.U64()), Seq: d.U64()} })
	reg(c, codeRSMReadReq, rsm.KindReadReq,
		func(e *Encoder, m rsm.ReadReqMsg) { e.U64(m.Seq); e.U32(m.Count); e.Int(int(m.Origin)) },
		func(d *Decoder) rsm.ReadReqMsg {
			return rsm.ReadReqMsg{Seq: d.U64(), Count: d.U32(), Origin: node.ID(d.Int())}
		})

	// A reply to several requests (rsm/read.go) carries all but the first
	// in a trailing string packed by rsm itself, which ends the frame; a
	// reply to one request ends after Local, as every reply did before
	// replies were shared. An empty string is never written, so it is not
	// read either: the one canonical frame per message strict decoding
	// rests on.
	reg(c, codeRSMReadReply, rsm.KindReadReply,
		func(e *Encoder, m rsm.ReadReplyMsg) {
			e.U64(m.Seq)
			e.U32(m.Count)
			e.Int(m.Index)
			local := uint32(0)
			if m.Local {
				local = 1
			}
			e.U32(local)
			if m.More != "" {
				e.Str(m.More)
			}
		},
		func(d *Decoder) rsm.ReadReplyMsg {
			m := rsm.ReadReplyMsg{Seq: d.U64(), Count: d.U32(), Index: d.Int(), Local: d.U32() != 0}
			if len(d.buf) > 0 {
				if m.More = d.Str(); m.More == "" {
					d.Fail(fmt.Errorf("wire: %s with an empty list of further requests", rsm.KindReadReply))
				}
			}
			return m
		})
}
