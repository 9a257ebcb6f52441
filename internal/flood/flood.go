// Package flood implements the flooding protocols the paper evaluates
// (Section V-A) on top of the sim engine, plus the protocol families the
// related work analyzes:
//
//   - OPT: the oracle scheme — every sensor receives from its best-quality
//     neighbor, no collisions ever occur.
//   - DBAO: deterministic back-off assignment + overhearing (the authors'
//     WASA'11 protocol); carrier sense among mutually audible candidates,
//     hidden terminals collide.
//   - OF: Opportunistic Flooding (Guo et al., MobiCom'09) — tree-primary
//     forwarding along the energy-optimal tree plus probabilistic
//     opportunistic forwarding decisions.
//   - Naive: flat unicast flooding with no link-quality knowledge — the
//     traditional-protocol baseline the introduction argues against.
//   - Trickle: interval-doubling timers with a redundancy constant K and
//     suppression counting (Levis et al., NSDI'04; RFC 6206). Suppressed
//     firings are tallied per node and surfaced through telemetry.
//   - DFlood: duplicate-suppression flooding with adaptive backoff (Otnes
//     & Haavik, OCEANS'13), with the duplicate penalty realized as a
//     bounded delay so floods always complete. Postponed timers are
//     tallied per node, once per (node, packet, attempt).
//
// Every protocol decides a slot in its Intents method, the engine's one
// per-slot call: one ascending pass over the awake receivers, each decided
// right after its neighbor row is scanned, with keyed draws from the
// slot's protocol stream (keyed.go). The intents come out grouped by
// ascending receiver, each with its link PRR, so the engine admits them
// without a sort or a link lookup. Trickle and DFlood derive all timer
// state from keyed RNG streams captured at Reset plus world-state reads
// (DFlood also keeps its timers on a fire calendar, brought up to the
// slot at the top of its Intents and advanced for the chosen timers at
// the end), so their schedules are bit-identical whichever slots the
// engine visits; their suppression behavior is tuned for liveness under
// the receiver-initiated engine (see the type docs for the exact backoff
// and suppression preconditions).
package flood

import (
	"fmt"
	"strings"

	"ldcflood/internal/sim"
)

// New returns a fresh protocol instance by name (case-insensitive), one
// of Names().
func New(name string) (sim.Protocol, error) {
	switch strings.ToLower(name) {
	case "opt":
		return NewOPT(), nil
	case "dbao":
		return NewDBAO(), nil
	case "of":
		return NewOF(), nil
	case "naive":
		return NewNaive(), nil
	case "trickle":
		return NewTrickle(), nil
	case "dflood":
		return NewDFlood(), nil
	default:
		return nil, fmt.Errorf("flood: unknown protocol %q (want %s)", name, strings.Join(Names(), ", "))
	}
}

// Names lists every protocol New accepts, in evaluation order.
func Names() []string { return []string{"opt", "dbao", "of", "naive", "trickle", "dflood"} }
