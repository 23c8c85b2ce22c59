package wire

import (
	"fmt"

	"repro/internal/consensus"
	"repro/internal/consensus/ct"
	"repro/internal/consensus/group"
	"repro/internal/consensus/rsm"
	"repro/internal/consensus/synod"
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
	codeSynodPrepare
	codeSynodPromise
	codeSynodNack
	codeSynodAccept
	codeSynodAccepted
	codeSynodDecide
	codeSynodLearn
	codeSynodRequest
	codeCTEstimate
	codeCTProposal
	codeCTAck
	codeCTNack
	codeCTDecide
	codeRSMRequest
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

// badType builds the error for an encoder handed the wrong concrete type.
func badType(want string, got node.Message) error {
	return fmt.Errorf("wire: encoder for %s got %T", want, got)
}

// reg registers kind with typed encode/decode functions, folding the
// concrete-type assertion and badType error into the adapter so a new
// message kind registers in a few lines.
func reg[M node.Message](c *Codec, code byte, kind string, enc func(*Encoder, M) error, dec func(*Decoder) (M, error)) {
	c.Register(code, kind,
		func(e *Encoder, m node.Message) error {
			msg, ok := m.(M)
			if !ok {
				return badType(kind, m)
			}
			return enc(e, msg)
		},
		func(d *Decoder) (node.Message, error) {
			return dec(d)
		})
}

// NewCodec returns a codec with every protocol message in this repository
// registered.
func NewCodec() *Codec {
	c := NewEmptyCodec()

	reg(c, codeCoreLeader, core.KindLeader,
		func(e *Encoder, m core.LeaderMsg) error { e.U64(m.Epoch); return nil },
		func(d *Decoder) (core.LeaderMsg, error) {
			epoch, err := d.U64()
			return core.LeaderMsg{Epoch: epoch}, err
		})

	reg(c, codeCoreAccuse, core.KindAccuse,
		func(e *Encoder, m core.AccuseMsg) error { e.U64(m.Epoch); return nil },
		func(d *Decoder) (core.AccuseMsg, error) {
			epoch, err := d.U64()
			return core.AccuseMsg{Epoch: epoch}, err
		})

	reg(c, codeCoreRebuff, core.KindRebuff,
		func(e *Encoder, m core.RebuffMsg) error { e.U64(m.Epoch); return nil },
		func(d *Decoder) (core.RebuffMsg, error) {
			epoch, err := d.U64()
			return core.RebuffMsg{Epoch: epoch}, err
		})

	reg(c, codeAllToAllAlive, alltoall.KindAlive,
		func(e *Encoder, m alltoall.AliveMsg) error { return nil },
		func(d *Decoder) (alltoall.AliveMsg, error) { return alltoall.AliveMsg{}, nil })

	reg(c, codeSourceAlive, source.KindAlive,
		func(e *Encoder, m source.AliveMsg) error { e.U64s(m.Counters); return nil },
		func(d *Decoder) (source.AliveMsg, error) {
			counters, err := d.U64s()
			return source.AliveMsg{Counters: counters}, err
		})

	registerSynod(c)
	registerCT(c)
	registerRSM(c)
	registerGroup(c)
	registerTrace(c)
	return c
}

// registerGroup registers the group-routing wrapper (multi-group sharded
// consensus, DESIGN.md §15): a varint GroupID followed by the inner
// message's own encoding — type code and fields — nested in place with no
// intermediate buffer. Wrappers do not
// nest: a GROUP code inside a GROUP body is a decode error, which also
// bounds decoder recursion at one level.
//
// Like the LeaseSeq fields on ACCEPT/ACCEPTED (PR 7), the new kind is not
// negotiated: a pre-group node that receives a GROUP frame fails strict
// decoding and (on TCP) drops the connection, so enabling sharded groups
// is a cluster-wide atomic upgrade. Nodes that never send groups remain
// wire-compatible in both directions.
func registerGroup(c *Codec) {
	c.Register(codeGroupWrap, group.KindGroup,
		func(e *Encoder, m node.Message) error {
			msg, ok := m.(group.Msg)
			if !ok {
				return badType(group.KindGroup, m)
			}
			if err := e.Int(msg.Group); err != nil {
				return err
			}
			if msg.Inner == nil {
				return fmt.Errorf("wire: group wrapper with nil inner message")
			}
			ent, ok := c.byKind[msg.Inner.Kind()]
			if !ok {
				return fmt.Errorf("%w: %q inside group wrapper", ErrUnknownKind, msg.Inner.Kind())
			}
			if ent.code == codeGroupWrap {
				return fmt.Errorf("wire: group wrapper cannot nest")
			}
			e.buf = append(e.buf, ent.code)
			return ent.enc(e, msg.Inner)
		},
		func(d *Decoder) (node.Message, error) {
			g, err := d.Int()
			if err != nil {
				return nil, err
			}
			if len(d.buf) == 0 {
				return nil, ErrTruncated
			}
			code := d.buf[0]
			if code == codeGroupWrap {
				return nil, fmt.Errorf("wire: group wrapper cannot nest")
			}
			ent, ok := c.byCode[code]
			if !ok {
				return nil, fmt.Errorf("%w: %d inside group wrapper", ErrUnknownCode, code)
			}
			d.buf = d.buf[1:]
			inner, err := ent.dec(d)
			if err != nil {
				return nil, fmt.Errorf("decode %q: %w", ent.kind, err)
			}
			return group.Msg{Group: g, Inner: inner}, nil
		})
}

// registerTrace registers the trace-context wrapper (causal tracing,
// DESIGN.md §8): the trace id and parent span id as varint u64 fields,
// followed by the inner message's own encoding — type code and fields —
// nested in place, exactly the group wrapper's shape. A TRACE
// wrapper may not nest itself, and may not carry a GROUP wrapper: the
// group envelope is always outermost (the demux fast path must see its
// own tag first), so a traced sharded message is GROUP(TRACE(inner)).
// Both rules are encode and decode errors, bounding decoder recursion at
// two levels (GROUP then TRACE) by construction.
//
// Like the GROUP kind and the LeaseSeq fields before it, TRACE is not
// negotiated: a pre-tracing node that receives a TRACE frame fails
// strict decoding and (on TCP) drops the connection, so enabling tracing
// is a cluster-wide atomic upgrade. Clusters that never sample remain
// wire-compatible in both directions — untraced messages encode exactly
// as before.
func registerTrace(c *Codec) {
	c.Register(codeTraceWrap, tracing.KindTrace,
		func(e *Encoder, m node.Message) error {
			msg, ok := m.(tracing.Wrap)
			if !ok {
				return badType(tracing.KindTrace, m)
			}
			e.U64(uint64(msg.Ctx.Trace))
			e.U64(uint64(msg.Ctx.Span))
			if msg.Inner == nil {
				return fmt.Errorf("wire: trace wrapper with nil inner message")
			}
			ent, ok := c.byKind[msg.Inner.Kind()]
			if !ok {
				return fmt.Errorf("%w: %q inside trace wrapper", ErrUnknownKind, msg.Inner.Kind())
			}
			if ent.code == codeTraceWrap {
				return fmt.Errorf("wire: trace wrapper cannot nest")
			}
			if ent.code == codeGroupWrap {
				return fmt.Errorf("wire: trace wrapper cannot carry a group wrapper (wrap the trace inside the group)")
			}
			e.buf = append(e.buf, ent.code)
			return ent.enc(e, msg.Inner)
		},
		func(d *Decoder) (node.Message, error) {
			trace, err := d.U64()
			if err != nil {
				return nil, err
			}
			span, err := d.U64()
			if err != nil {
				return nil, err
			}
			if len(d.buf) == 0 {
				return nil, ErrTruncated
			}
			code := d.buf[0]
			if code == codeTraceWrap {
				return nil, fmt.Errorf("wire: trace wrapper cannot nest")
			}
			if code == codeGroupWrap {
				return nil, fmt.Errorf("wire: trace wrapper cannot carry a group wrapper")
			}
			ent, ok := c.byCode[code]
			if !ok {
				return nil, fmt.Errorf("%w: %d inside trace wrapper", ErrUnknownCode, code)
			}
			d.buf = d.buf[1:]
			inner, err := ent.dec(d)
			if err != nil {
				return nil, fmt.Errorf("decode %q: %w", ent.kind, err)
			}
			return tracing.Wrap{
				Ctx:   tracing.Context{Trace: tracing.TraceID(trace), Span: tracing.SpanID(span)},
				Inner: inner,
			}, nil
		})
}

func registerSynod(c *Codec) {
	reg(c, codeSynodPrepare, synod.KindPrepare,
		func(e *Encoder, m synod.PrepareMsg) error { e.U64(uint64(m.B)); return nil },
		func(d *Decoder) (synod.PrepareMsg, error) {
			b, err := d.U64()
			return synod.PrepareMsg{B: consensus.Ballot(b)}, err
		})

	reg(c, codeSynodPromise, synod.KindPromise,
		func(e *Encoder, m synod.PromiseMsg) error {
			e.U64(uint64(m.B))
			e.U64(uint64(m.AccB))
			e.Str(string(m.AccV))
			return nil
		},
		func(d *Decoder) (synod.PromiseMsg, error) {
			b, err := d.U64()
			if err != nil {
				return synod.PromiseMsg{}, err
			}
			accB, err := d.U64()
			if err != nil {
				return synod.PromiseMsg{}, err
			}
			accV, err := d.Str()
			return synod.PromiseMsg{
				B:    consensus.Ballot(b),
				AccB: consensus.Ballot(accB),
				AccV: consensus.Value(accV),
			}, err
		})

	reg(c, codeSynodNack, synod.KindNack,
		func(e *Encoder, m synod.NackMsg) error {
			e.U64(uint64(m.B))
			e.U64(uint64(m.Promised))
			return nil
		},
		func(d *Decoder) (synod.NackMsg, error) {
			b, err := d.U64()
			if err != nil {
				return synod.NackMsg{}, err
			}
			p, err := d.U64()
			return synod.NackMsg{B: consensus.Ballot(b), Promised: consensus.Ballot(p)}, err
		})

	reg(c, codeSynodAccept, synod.KindAccept,
		func(e *Encoder, m synod.AcceptMsg) error {
			e.U64(uint64(m.B))
			e.Str(string(m.V))
			return nil
		},
		func(d *Decoder) (synod.AcceptMsg, error) {
			b, err := d.U64()
			if err != nil {
				return synod.AcceptMsg{}, err
			}
			v, err := d.Str()
			return synod.AcceptMsg{B: consensus.Ballot(b), V: consensus.Value(v)}, err
		})

	reg(c, codeSynodAccepted, synod.KindAccepted,
		func(e *Encoder, m synod.AcceptedMsg) error { e.U64(uint64(m.B)); return nil },
		func(d *Decoder) (synod.AcceptedMsg, error) {
			b, err := d.U64()
			return synod.AcceptedMsg{B: consensus.Ballot(b)}, err
		})

	reg(c, codeSynodDecide, synod.KindDecide,
		func(e *Encoder, m synod.DecideMsg) error { e.Str(string(m.V)); return nil },
		func(d *Decoder) (synod.DecideMsg, error) {
			v, err := d.Str()
			return synod.DecideMsg{V: consensus.Value(v)}, err
		})

	reg(c, codeSynodLearn, synod.KindLearn,
		func(e *Encoder, m synod.LearnMsg) error { return nil },
		func(d *Decoder) (synod.LearnMsg, error) { return synod.LearnMsg{}, nil })

	reg(c, codeSynodRequest, synod.KindRequest,
		func(e *Encoder, m synod.RequestMsg) error { e.Str(string(m.V)); return nil },
		func(d *Decoder) (synod.RequestMsg, error) {
			v, err := d.Str()
			return synod.RequestMsg{V: consensus.Value(v)}, err
		})
}

func registerCT(c *Codec) {
	reg(c, codeCTEstimate, ct.KindEstimate,
		func(e *Encoder, m ct.EstimateMsg) error {
			if err := e.Int(m.R); err != nil {
				return err
			}
			e.Str(string(m.Est))
			return e.Int(m.TS)
		},
		func(d *Decoder) (ct.EstimateMsg, error) {
			r, err := d.Int()
			if err != nil {
				return ct.EstimateMsg{}, err
			}
			est, err := d.Str()
			if err != nil {
				return ct.EstimateMsg{}, err
			}
			ts, err := d.Int()
			return ct.EstimateMsg{R: r, Est: consensus.Value(est), TS: ts}, err
		})

	reg(c, codeCTProposal, ct.KindProposal,
		func(e *Encoder, m ct.ProposalMsg) error {
			if err := e.Int(m.R); err != nil {
				return err
			}
			e.Str(string(m.V))
			return nil
		},
		func(d *Decoder) (ct.ProposalMsg, error) {
			r, err := d.Int()
			if err != nil {
				return ct.ProposalMsg{}, err
			}
			v, err := d.Str()
			return ct.ProposalMsg{R: r, V: consensus.Value(v)}, err
		})

	reg(c, codeCTAck, ct.KindAck,
		func(e *Encoder, m ct.AckMsg) error { return e.Int(m.R) },
		func(d *Decoder) (ct.AckMsg, error) {
			r, err := d.Int()
			return ct.AckMsg{R: r}, err
		})

	reg(c, codeCTNack, ct.KindNack,
		func(e *Encoder, m ct.NackMsg) error { return e.Int(m.R) },
		func(d *Decoder) (ct.NackMsg, error) {
			r, err := d.Int()
			return ct.NackMsg{R: r}, err
		})

	reg(c, codeCTDecide, ct.KindDecide,
		func(e *Encoder, m ct.DecideMsg) error { e.Str(string(m.V)); return nil },
		func(d *Decoder) (ct.DecideMsg, error) {
			v, err := d.Str()
			return ct.DecideMsg{V: consensus.Value(v)}, err
		})
}

func registerRSM(c *Codec) {
	reg(c, codeRSMRequest, rsm.KindRequest,
		func(e *Encoder, m rsm.RequestMsg) error { e.Str(string(m.V)); return nil },
		func(d *Decoder) (rsm.RequestMsg, error) {
			v, err := d.Str()
			return rsm.RequestMsg{V: consensus.Value(v)}, err
		})

	reg(c, codeRSMPrepare, rsm.KindPrepare,
		func(e *Encoder, m rsm.PrepareMsg) error { e.U64(uint64(m.B)); return nil },
		func(d *Decoder) (rsm.PrepareMsg, error) {
			b, err := d.U64()
			return rsm.PrepareMsg{B: consensus.Ballot(b)}, err
		})

	reg(c, codeRSMPromise, rsm.KindPromise,
		func(e *Encoder, m rsm.PromiseMsg) error {
			e.U64(uint64(m.B))
			e.U32(uint32(len(m.Entries)))
			for _, ent := range m.Entries {
				if err := e.Int(ent.Inst); err != nil {
					return err
				}
				e.U64(uint64(ent.AccB))
				e.Str(string(ent.AccV))
			}
			return nil
		},
		func(d *Decoder) (rsm.PromiseMsg, error) {
			b, err := d.U64()
			if err != nil {
				return rsm.PromiseMsg{}, err
			}
			// An entry is an instance, a ballot and a string's length prefix
			// at the least.
			n, err := d.Len(3)
			if err != nil {
				return rsm.PromiseMsg{}, err
			}
			entries := make([]rsm.PromEntry, n)
			for i := range entries {
				inst, err := d.Int()
				if err != nil {
					return rsm.PromiseMsg{}, err
				}
				accB, err := d.U64()
				if err != nil {
					return rsm.PromiseMsg{}, err
				}
				accV, err := d.Str()
				if err != nil {
					return rsm.PromiseMsg{}, err
				}
				entries[i] = rsm.PromEntry{Inst: inst, AccB: consensus.Ballot(accB), AccV: consensus.Value(accV)}
			}
			if len(entries) == 0 {
				entries = nil
			}
			return rsm.PromiseMsg{B: consensus.Ballot(b), Entries: entries}, nil
		})

	reg(c, codeRSMNack, rsm.KindNack,
		func(e *Encoder, m rsm.NackMsg) error {
			e.U64(uint64(m.B))
			e.U64(uint64(m.Promised))
			return nil
		},
		func(d *Decoder) (rsm.NackMsg, error) {
			b, err := d.U64()
			if err != nil {
				return rsm.NackMsg{}, err
			}
			p, err := d.U64()
			return rsm.NackMsg{B: consensus.Ballot(b), Promised: consensus.Ballot(p)}, err
		})

	// The trailing LeaseSeq on ACCEPT/ACCEPTED (PR 7) is not negotiated:
	// strict decoding makes pre-lease and post-lease frames mutually
	// unreadable, so clusters upgrade atomically across that boundary
	// (DESIGN.md §13).
	reg(c, codeRSMAccept, rsm.KindAccept,
		func(e *Encoder, m rsm.AcceptMsg) error {
			e.U64(uint64(m.B))
			if err := e.Int(m.Inst); err != nil {
				return err
			}
			e.Str(string(m.V))
			if err := e.Int(m.CommitUpTo); err != nil {
				return err
			}
			if err := e.Int(m.MinDone); err != nil {
				return err
			}
			e.U64(m.LeaseSeq)
			return nil
		},
		func(d *Decoder) (rsm.AcceptMsg, error) {
			b, err := d.U64()
			if err != nil {
				return rsm.AcceptMsg{}, err
			}
			inst, err := d.Int()
			if err != nil {
				return rsm.AcceptMsg{}, err
			}
			v, err := d.Str()
			if err != nil {
				return rsm.AcceptMsg{}, err
			}
			commit, err := d.Int()
			if err != nil {
				return rsm.AcceptMsg{}, err
			}
			minDone, err := d.Int()
			if err != nil {
				return rsm.AcceptMsg{}, err
			}
			lease, err := d.U64()
			return rsm.AcceptMsg{B: consensus.Ballot(b), Inst: inst, V: consensus.Value(v), CommitUpTo: commit, MinDone: minDone, LeaseSeq: lease}, err
		})

	reg(c, codeRSMAccepted, rsm.KindAccepted,
		func(e *Encoder, m rsm.AcceptedMsg) error {
			e.U64(uint64(m.B))
			if err := e.Int(m.Inst); err != nil {
				return err
			}
			if err := e.Int(m.Done); err != nil {
				return err
			}
			e.U64(m.LeaseSeq)
			return nil
		},
		func(d *Decoder) (rsm.AcceptedMsg, error) {
			b, err := d.U64()
			if err != nil {
				return rsm.AcceptedMsg{}, err
			}
			inst, err := d.Int()
			if err != nil {
				return rsm.AcceptedMsg{}, err
			}
			done, err := d.Int()
			if err != nil {
				return rsm.AcceptedMsg{}, err
			}
			lease, err := d.U64()
			return rsm.AcceptedMsg{B: consensus.Ballot(b), Inst: inst, Done: done, LeaseSeq: lease}, err
		})

	// DECIDE has two forms under one code, told apart by the leading
	// ballot (PR 13, not negotiated — like LeaseSeq, clusters upgrade
	// atomically across it; DESIGN.md "commit index"): a non-zero ballot
	// is the value-free commit index and ends after Inst; NoBallot is the
	// by-value repair reply and carries the value.
	reg(c, codeRSMDecide, rsm.KindDecide,
		func(e *Encoder, m rsm.DecideMsg) error {
			e.U64(uint64(m.B))
			if err := e.Int(m.Inst); err != nil {
				return err
			}
			if m.B != consensus.NoBallot {
				if m.V != consensus.NoValue {
					return fmt.Errorf("wire: %s commit index at ballot %v carries a value", rsm.KindDecide, m.B)
				}
				return nil
			}
			e.Str(string(m.V))
			return nil
		},
		func(d *Decoder) (rsm.DecideMsg, error) {
			b, err := d.U64()
			if err != nil {
				return rsm.DecideMsg{}, err
			}
			inst, err := d.Int()
			if err != nil || b != 0 {
				return rsm.DecideMsg{B: consensus.Ballot(b), Inst: inst}, err
			}
			v, err := d.Str()
			return rsm.DecideMsg{Inst: inst, V: consensus.Value(v)}, err
		})

	reg(c, codeRSMLearn, rsm.KindLearn,
		func(e *Encoder, m rsm.LearnMsg) error { return e.Int(m.FirstGap) },
		func(d *Decoder) (rsm.LearnMsg, error) {
			g, err := d.Int()
			return rsm.LearnMsg{FirstGap: g}, err
		})

	reg(c, codeRSMLeaseGrant, rsm.KindLeaseGrant,
		func(e *Encoder, m rsm.LeaseGrantMsg) error {
			e.U64(uint64(m.B))
			e.U64(m.Seq)
			return nil
		},
		func(d *Decoder) (rsm.LeaseGrantMsg, error) {
			b, err := d.U64()
			if err != nil {
				return rsm.LeaseGrantMsg{}, err
			}
			seq, err := d.U64()
			return rsm.LeaseGrantMsg{B: consensus.Ballot(b), Seq: seq}, err
		})

	reg(c, codeRSMLeaseAck, rsm.KindLeaseAck,
		func(e *Encoder, m rsm.LeaseAckMsg) error {
			e.U64(uint64(m.B))
			e.U64(m.Seq)
			return nil
		},
		func(d *Decoder) (rsm.LeaseAckMsg, error) {
			b, err := d.U64()
			if err != nil {
				return rsm.LeaseAckMsg{}, err
			}
			seq, err := d.U64()
			return rsm.LeaseAckMsg{B: consensus.Ballot(b), Seq: seq}, err
		})

	reg(c, codeRSMReadReq, rsm.KindReadReq,
		func(e *Encoder, m rsm.ReadReqMsg) error {
			e.U64(m.Seq)
			e.U32(m.Count)
			return e.Int(int(m.Origin))
		},
		func(d *Decoder) (rsm.ReadReqMsg, error) {
			seq, err := d.U64()
			if err != nil {
				return rsm.ReadReqMsg{}, err
			}
			count, err := d.U32()
			if err != nil {
				return rsm.ReadReqMsg{}, err
			}
			origin, err := d.Int()
			return rsm.ReadReqMsg{Seq: seq, Count: count, Origin: node.ID(origin)}, err
		})

	// A reply to several requests (rsm/read.go) carries all but the first
	// in a trailing string packed by rsm itself, which ends the frame; a
	// reply to one request ends after Local, as every reply did before
	// replies were shared. An empty string is never written, so it is not
	// read either: the one canonical frame per message strict decoding
	// rests on.
	reg(c, codeRSMReadReply, rsm.KindReadReply,
		func(e *Encoder, m rsm.ReadReplyMsg) error {
			e.U64(m.Seq)
			e.U32(m.Count)
			if err := e.Int(m.Index); err != nil {
				return err
			}
			var local uint32
			if m.Local {
				local = 1
			}
			e.U32(local)
			if m.More != "" {
				e.Str(m.More)
			}
			return nil
		},
		func(d *Decoder) (rsm.ReadReplyMsg, error) {
			seq, err := d.U64()
			if err != nil {
				return rsm.ReadReplyMsg{}, err
			}
			count, err := d.U32()
			if err != nil {
				return rsm.ReadReplyMsg{}, err
			}
			index, err := d.Int()
			if err != nil {
				return rsm.ReadReplyMsg{}, err
			}
			local, err := d.U32()
			m := rsm.ReadReplyMsg{Seq: seq, Count: count, Index: index, Local: local != 0}
			if err != nil || len(d.buf) == 0 {
				return m, err
			}
			if m.More, err = d.Str(); err == nil && m.More == "" {
				err = fmt.Errorf("wire: %s with an empty list of further requests", rsm.KindReadReply)
			}
			return m, err
		})
}
