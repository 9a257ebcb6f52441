package sim

import "ldcflood/internal/rngutil"

// Candidate was one prospective sender of the plan/select protocol split.
//
// Deprecated: the engine calls only Protocol.Intents; nothing produces a
// Candidate.
type Candidate struct{}

// SlotPlan was one slot's planned candidates.
//
// Deprecated: the engine calls only Protocol.Intents; nothing produces a
// SlotPlan.
type SlotPlan struct{}

// ShardPlanner was the plan/select split of a protocol's per-slot
// decision.
//
// Deprecated: the engine never looks for it and no protocol implements it;
// a protocol decides its slot in Intents.
type ShardPlanner interface {
	Protocol
	// PlanReceiver listed receiver r's candidate senders.
	PlanReceiver(w *World, r int, slot *rngutil.Stream, buf []Candidate) []Candidate
	// SelectIntents chose the slot's transmissions from the plan.
	SelectIntents(w *World, plan *SlotPlan, emit func(in Intent, prr float64))
}
