package rsm

import "repro/internal/obs"

// Kind ids are interned once at package init so the replicated-log send
// path (node.KindIDer fast path) never hashes a kind string.
var (
	kindRequestID  = obs.Intern(KindRequest)
	kindPrepareID  = obs.Intern(KindPrepare)
	kindPromiseID  = obs.Intern(KindPromise)
	kindNackID     = obs.Intern(KindNack)
	kindAcceptID   = obs.Intern(KindAccept)
	kindAcceptedID = obs.Intern(KindAccepted)
	kindDecideID   = obs.Intern(KindDecide)
	kindLearnID    = obs.Intern(KindLearn)

	kindLeaseGrantID = obs.Intern(KindLeaseGrant)
	kindLeaseAckID   = obs.Intern(KindLeaseAck)
	kindReadReqID    = obs.Intern(KindReadReq)
	kindReadReplyID  = obs.Intern(KindReadReply)
)

// KindID implements node.KindIDer.
func (RequestMsg) KindID() obs.Kind { return kindRequestID }

// KindID implements node.KindIDer.
func (PrepareMsg) KindID() obs.Kind { return kindPrepareID }

// KindID implements node.KindIDer.
func (PromiseMsg) KindID() obs.Kind { return kindPromiseID }

// KindID implements node.KindIDer.
func (NackMsg) KindID() obs.Kind { return kindNackID }

// KindID implements node.KindIDer.
func (*AcceptMsg) KindID() obs.Kind { return kindAcceptID }

// KindID implements node.KindIDer.
func (*AcceptedMsg) KindID() obs.Kind { return kindAcceptedID }

// KindID implements node.KindIDer.
func (*DecideMsg) KindID() obs.Kind { return kindDecideID }

// KindID implements node.KindIDer.
func (LearnMsg) KindID() obs.Kind { return kindLearnID }

// KindID implements node.KindIDer.
func (LeaseGrantMsg) KindID() obs.Kind { return kindLeaseGrantID }

// KindID implements node.KindIDer.
func (LeaseAckMsg) KindID() obs.Kind { return kindLeaseAckID }

// KindID implements node.KindIDer.
func (ReadReqMsg) KindID() obs.Kind { return kindReadReqID }

// KindID implements node.KindIDer.
func (ReadReplyMsg) KindID() obs.Kind { return kindReadReplyID }
