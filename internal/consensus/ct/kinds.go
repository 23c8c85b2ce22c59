package ct

import "repro/internal/obs"

// Kind ids are interned once at package init, so the consensus send path
// never hashes a kind string. The kinds run only in the simulator: none
// has a wire code.
var (
	kindEstimateID = obs.Intern(KindEstimate)
	kindProposalID = obs.Intern(KindProposal)
	kindAckID      = obs.Intern(KindAck)
	kindNackID     = obs.Intern(KindNack)
	kindDecideID   = obs.Intern(KindDecide)
)

// Each KindID implements node.Message.
func (EstimateMsg) KindID() obs.Kind { return kindEstimateID }
func (ProposalMsg) KindID() obs.Kind { return kindProposalID }
func (AckMsg) KindID() obs.Kind      { return kindAckID }
func (NackMsg) KindID() obs.Kind     { return kindNackID }
func (DecideMsg) KindID() obs.Kind   { return kindDecideID }
