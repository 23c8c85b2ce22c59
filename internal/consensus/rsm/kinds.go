package rsm

import "repro/internal/obs"

// Kind ids are interned once at package init, so the replicated-log send
// path never hashes a kind string.
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

// Each KindID implements node.Message.
func (RequestMsg) KindID() obs.Kind    { return kindRequestID } // for the box and the plain value alike
func (PrepareMsg) KindID() obs.Kind    { return kindPrepareID }
func (PromiseMsg) KindID() obs.Kind    { return kindPromiseID }
func (NackMsg) KindID() obs.Kind       { return kindNackID }
func (*AcceptMsg) KindID() obs.Kind    { return kindAcceptID }   // sent boxed, from a node.Slab
func (*AcceptedMsg) KindID() obs.Kind  { return kindAcceptedID } // sent boxed, from a node.Slab
func (*DecideMsg) KindID() obs.Kind    { return kindDecideID }   // sent boxed, from a node.Slab
func (LearnMsg) KindID() obs.Kind      { return kindLearnID }
func (LeaseGrantMsg) KindID() obs.Kind { return kindLeaseGrantID }
func (LeaseAckMsg) KindID() obs.Kind   { return kindLeaseAckID }
func (ReadReqMsg) KindID() obs.Kind    { return kindReadReqID }   // for the box and the plain value alike
func (*ReadReplyMsg) KindID() obs.Kind { return kindReadReplyID } // sent boxed, from a node.Slab
