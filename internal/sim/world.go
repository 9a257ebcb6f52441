// Package sim is the slotted discrete-event simulator implementing the
// network model of Section III: periodic working schedules, semi-duplex
// radios, unreliable links with Bernoulli loss, FCFS packet queues, and
// flooding realized as a series of unicasts. Flooding protocols (package
// flood) plug in through the Protocol interface; the engine owns slot
// mechanics, collision and loss resolution, overhearing, and metrics.
package sim

import (
	"fmt"
	"math"
	"math/bits"

	"ldcflood/internal/fault"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/telemetry"
	"ldcflood/internal/topology"
)

// World is the simulation state visible to protocols. Protocols must treat
// it as read-only except through their returned intents and the opt-in
// TrackNeighborHolders.
type World struct {
	Graph     *topology.Graph
	Schedules []*schedule.Schedule
	// M is the total number of packets the source will inject.
	M int
	// InjectInterval is the number of slots between injections.
	InjectInterval int
	// ProtoRNG is a sequential random stream for protocol-internal
	// decisions, split from the run seed. A protocol may draw from it in
	// Intents, or derive keyed streams from it at Reset; the protocols in
	// internal/flood make every per-slot draw from ProtoStream instead.
	ProtoRNG *rngutil.Stream

	// has is the node-major possession bitset: bit p%64 of word
	// has[node*pwords + p/64] is set when node holds packet p. The layout
	// makes OldestNeeded a handful of word operations per packet word
	// instead of a per-packet bool walk.
	has       []uint64
	pwords    int     // uint64 words per node in has: ceil(M/64)
	heldCount []int   // heldCount[node]: packets node currently holds
	recvTime  []int64 // recvTime[node*M+p]; -1 if not received (node-major so OldestNeeded scans contiguously)
	count     []int   // count[p]: nodes currently holding p
	injected  int     // packets injected so far
	now       int64

	// holderNbrs[v] is how many of v's neighbours hold at least one
	// packet. The engine raises it along a node's row when the node gets
	// its first packet and lowers it when a crash empties the node.
	holderNbrs []int32
	// flags holds one byte of marks per node: the slot's (flagAwake and
	// slotFlags) and the persistent state the frontier and the awake set
	// are built from, so building them loads one byte per node.
	flags     []uint8
	awakeList []int
	frontier  []int

	// protoSlot is the slot's keyed protocol stream, re-derived by the
	// engine every slot.
	protoSlot rngutil.Stream

	// nbrHeld is the opt-in per-packet neighbour-holder count
	// (TrackNeighborHolders): nbrHeld[p*n+v] is how many of v's neighbours
	// hold packet p. Nil unless a protocol asked for it; dropAll and the
	// engine's delivery sites keep it current by walking the node's csr
	// row. holderLog journals every change to it, one entry per possession
	// change; the engine empties it after every Protocol.Intents call.
	nbrHeld   []int32
	holderLog []HolderChange
	// csr is the graph's flat adjacency view, shared and read-only: the
	// holder counts' row walks, link lookups for intents with an unknown
	// PRR and the overhearing phase's neighbor rows.
	csr *topology.CSR
}

// The per-node flags in World.flags. flagAwake lasts until the next
// visited slot and slotFlags until the end of the slot; the rest mirror
// the node's state and change only with it.
const (
	flagAwake        uint8 = 1 << iota // in its active slot and not crashed
	flagTargeted                       // the receiver of an admitted intent
	flagTransmitting                   // the sender of an admitted intent
	flagOverheard                      // decided as an overhear candidate
	flagCrashed                        // down from a crash until its reboot
	flagNeedy                          // lacks an injected packet
	flagHolderNbr                      // holderNbrs is non-zero

	slotFlags     = flagTargeted | flagTransmitting | flagOverheard
	frontierFlags = flagNeedy | flagHolderNbr
)

// HolderChange is one possession change journaled while the
// neighbour-holder count is tracked: Node gained (Delta +1) or lost
// (Delta -1) Packet.
type HolderChange struct {
	Node, Packet, Delta int32
}

// Now returns the current slot.
func (w *World) Now() int64 { return w.now }

// Injected returns how many packets have been injected so far.
func (w *World) Injected() int { return w.injected }

// InjectSlot returns the slot at which packet p is (or will be) injected.
func (w *World) InjectSlot(p int) int64 { return int64(p) * int64(w.InjectInterval) }

// Has reports whether node holds packet p.
func (w *World) Has(p, node int) bool {
	return w.has[node*w.pwords+p>>6]&(1<<(uint(p)&63)) != 0
}

// PacketWords returns the number of 64-bit words in a node's possession
// mask, ceil(M/64): the range of the word index NeededWord takes.
func (w *World) PacketWords() int { return w.pwords }

// NeededWord returns word i of the packets sender holds and receiver
// lacks: bit j is set when sender holds packet i*64+j and receiver does
// not. Walking the set bits of words 0..PacketWords()-1 visits those
// packets in ascending order, a handful of word operations instead of a
// per-packet Has probe.
func (w *World) NeededWord(sender, receiver, i int) uint64 {
	return w.has[sender*w.pwords+i] &^ w.has[receiver*w.pwords+i]
}

// TrackNeighborHolders turns on the per-packet neighbour-holder count
// read by NeighborsHolding, initialised from the current possession
// state. A protocol that needs the count calls it from Reset;
// from then on every delivery and crash updates the count by walking the
// node's neighbour row, outside Intents, so the count Intents reads is the
// slot's pre-slot state. Every update is also journaled for
// TakeHolderChanges, starting with one +1 entry per packet copy held at
// the call; the engine empties the journal after every Intents call, so
// it never holds more than the changes since the previous one. Protocols
// that never call it pay one predictable branch per delivery and allocate
// nothing.
func (w *World) TrackNeighborHolders() {
	n := w.Graph.N()
	w.nbrHeld = make([]int32, w.M*n)
	for v := 0; v < n; v++ {
		for i, word := range w.has[v*w.pwords : (v+1)*w.pwords] {
			for word != 0 {
				w.addHolder(i<<6+bits.TrailingZeros64(word), v, 1)
				word &= word - 1
			}
		}
	}
}

// NeighborsHolding returns how many of node's neighbours hold packet p.
// It requires TrackNeighborHolders.
func (w *World) NeighborsHolding(p, node int) int {
	return int(w.nbrHeld[p*w.Graph.N()+node])
}

// TakeHolderChanges returns the possession changes since the previous
// Intents call, in the order they happened, and empties the journal. It
// requires TrackNeighborHolders. The changes reflect the world up to the
// call, so a protocol that takes them in its Intents sees every delivery,
// injection and crash before it decides; changes it does not take are
// dropped when Intents returns. The slice is reused: it is valid until
// the engine's next delivery or crash.
func (w *World) TakeHolderChanges() []HolderChange {
	out := w.holderLog
	w.holderLog = w.holderLog[:0]
	return out
}

// addHolderNbr adds d to the holder count of every neighbour of node: the
// node got its first packet (+1) or a crash emptied it (-1).
func (w *World) addHolderNbr(node int, d int32) {
	row, _ := w.csr.Row(node)
	for _, u := range row {
		w.holderNbrs[u] += d
		if w.holderNbrs[u] == 0 {
			w.flags[u] &^= flagHolderNbr
		} else {
			w.flags[u] |= flagHolderNbr
		}
	}
}

// addHolder adds d to packet p's holder count at every neighbour of node
// and journals the change. Callers guard it with a nil check on nbrHeld;
// it is kept out of line so the guarded call adds little to the engine's
// inlined delivery paths.
//
//go:noinline
func (w *World) addHolder(p, node int, d int32) {
	w.holderLog = append(w.holderLog, HolderChange{Node: int32(node), Packet: int32(p), Delta: d})
	n := w.Graph.N()
	row, _ := w.csr.Row(node)
	held := w.nbrHeld[p*n : (p+1)*n]
	for _, u := range row {
		held[u] += d
	}
}

// RecvTime returns the slot at which node received packet p, or -1.
func (w *World) RecvTime(p, node int) int64 { return w.recvTime[node*w.M+p] }

// IsAwake reports whether node is in its active slot right now.
func (w *World) IsAwake(node int) bool { return w.flags[node]&flagAwake != 0 }

// AwakeList returns the nodes awake this slot, ascending. The slice is
// owned by the engine; do not modify or retain it.
func (w *World) AwakeList() []int { return w.awakeList }

// Frontier returns the slot's possible receivers, ascending: the awake
// nodes that lack an injected packet and have a neighbour holding at
// least one packet. A packet only ever moves from a holder to an awake
// neighbour that lacks it (the compact model's X(c+1) = X(c) + S(c)·I),
// so a protocol decides only these. With one packet it is exactly the awake
// nodes a neighbour can serve; with more, a node whose holder neighbours
// hold only packets it has is listed too. The engine builds it once per
// visited slot, before Intents. The slice is owned by the engine; do not
// modify or retain it.
func (w *World) Frontier() []int { return w.frontier }

// ProtoStream returns a copy of the slot's keyed protocol stream, derived
// from the run seed and the slot alone. A protocol draws (slot, node)-keyed
// values from it in Intents with PairFloat64, which never advances it, so
// each draw is a pure function of (seed, slot, keys), whichever receivers
// were decided before it.
func (w *World) ProtoStream() rngutil.Stream { return w.protoSlot }

// NeedsAnything reports whether node is missing any injected packet.
func (w *World) NeedsAnything(node int) bool {
	return w.flags[node]&flagNeedy != 0
}

// OldestNeeded returns the packet that sender should forward to receiver
// under the FCFS relay policy: among the injected packets sender holds and
// receiver lacks, the one sender received earliest (ties to the smaller
// packet index). It returns -1 if there is no such packet.
func (w *World) OldestNeeded(sender, receiver int) int {
	sb := w.has[sender*w.pwords : (sender+1)*w.pwords]
	rb := w.has[receiver*w.pwords : (receiver+1)*w.pwords]
	rts := w.recvTime[sender*w.M : (sender+1)*w.M]
	best := -1
	var bestTime int64 = math.MaxInt64
	for i, sw := range sb {
		need := sw &^ rb[i]
		for need != 0 {
			p := i<<6 + bits.TrailingZeros64(need)
			need &= need - 1
			if rt := rts[p]; rt < bestTime {
				best, bestTime = p, rt
			}
		}
	}
	return best
}

// AnyNeeded reports whether sender holds at least one packet receiver
// lacks — equivalent to OldestNeeded(sender, receiver) >= 0 but without
// finding the FCFS minimum, a handful of word operations. Protocols use it
// as the cheap candidate-admission test, deferring the OldestNeeded scan to
// the senders that actually fire.
func (w *World) AnyNeeded(sender, receiver int) bool {
	if w.pwords == 1 {
		return w.has[sender]&^w.has[receiver] != 0
	}
	sb := w.has[sender*w.pwords : (sender+1)*w.pwords]
	rb := w.has[receiver*w.pwords : (receiver+1)*w.pwords]
	for i, sw := range sb {
		if sw&^rb[i] != 0 {
			return true
		}
	}
	return false
}

// FreeHolders returns, in dst's storage, the indices into row — receiver's
// CSR row — of the neighbours that are not busy and hold a packet receiver
// lacks, ascending: the row entries for which !busy[s] && AnyNeeded(s,
// receiver) holds. It is the candidate scan of the contention protocols,
// which pass their per-slot assigned flags as busy. With one packet word
// it loads receiver's word once and counts without a branch: every index
// is written and the count advances only past a free holder, so the
// possession test feeds no branch to mispredict.
func (w *World) FreeHolders(dst []int32, receiver int, row []int32, busy []bool) []int32 {
	if cap(dst) < len(row) {
		dst = make([]int32, len(row))
	}
	dst = dst[:len(row)]
	k := 0
	if w.pwords == 1 {
		has, lacks := w.has, ^w.has[receiver]
		for i, s := range row {
			dst[k] = int32(i)
			free := 0
			if has[s]&lacks != 0 {
				free = 1
			}
			if busy[s] {
				free = 0
			}
			k += free
		}
		return dst[:k]
	}
	rb := w.has[receiver*w.pwords : (receiver+1)*w.pwords]
	for i, s := range row {
		if busy[s] {
			continue
		}
		sb := w.has[int(s)*w.pwords:][:len(rb)]
		for j, sw := range sb {
			if sw&^rb[j] != 0 {
				dst[k] = int32(i)
				k++
				break
			}
		}
	}
	return dst[:k]
}

// dropAll clears node's entire packet buffer — the engine applies it when
// a fault-schedule crash takes effect. Possession bits, reception times,
// the per-packet holder counts, the neighbours' holder counts and (when
// tracked) the per-packet neighbour-holder counts are rolled back; latched
// Result fields (CoverTime, Delay) are deliberately untouched, so coverage
// remains monotone per packet. It returns the number of packet copies
// dropped.
func (w *World) dropAll(node int) int {
	dropped := 0
	words := w.has[node*w.pwords : (node+1)*w.pwords]
	for i, word := range words {
		for word != 0 {
			p := i<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			w.count[p]--
			w.recvTime[node*w.M+p] = -1
			if w.nbrHeld != nil {
				w.addHolder(p, node, -1)
			}
			dropped++
		}
		words[i] = 0
	}
	if dropped > 0 {
		w.addHolderNbr(node, -1)
		w.flags[node] |= flagNeedy
	}
	w.heldCount[node] = 0
	return dropped
}

// deliver records node's reception of packet p at slot t and reports
// whether it was new. It leaves the neighbours' holder counts to the
// caller (addHolderNbr on a first packet, addHolder when nbrHeld is
// non-nil), so it stays small enough to inline.
func (w *World) deliver(p, node int, t int64) bool {
	if w.Has(p, node) {
		return false
	}
	w.has[node*w.pwords+p>>6] |= 1 << (uint(p) & 63)
	w.recvTime[node*w.M+p] = t
	w.count[p]++
	w.heldCount[node]++
	return true
}

// Intent is a protocol's request that From unicast Packet to To this slot.
type Intent struct {
	From, To, Packet int
	// PRR is the From–To link's packet reception ratio, which a protocol
	// that has just read it off a CSR row passes on so admission skips the
	// lookup. 0 means unknown: admission looks it up.
	PRR float64
}

// PacketFCFS, as an Intent's Packet, stands for the sender's oldest packet
// the receiver still needs (World.OldestNeeded). The engine resolves it at
// admission, for the intents a protocol returns only, so a protocol can
// test candidates with the cheap AnyNeeded word test. A protocol whose
// decision depends on the packet — OF's opportunistic forwarding, DFlood's
// per-packet timers — resolves it itself and returns the concrete packet.
const PacketFCFS = -1

// Protocol is a flooding strategy plugged into the engine.
type Protocol interface {
	// Name identifies the protocol in results ("OPT", "DBAO", "OF", ...).
	Name() string
	// Reset prepares protocol state for a fresh run over the given world.
	Reset(w *World)
	// Intents returns this slot's transmission requests; it is the
	// engine's one per-slot call into the protocol. The engine sorts the
	// intents by receiver, stably, unless they already ascend; resolves
	// PacketFCFS; validates them (sender holds the packet, link exists,
	// receiver is awake and lacks the packet) and enforces one
	// transmission per sender, in that order. A zero PRR is looked up; a
	// non-zero one is trusted and must be the link's. The engine reads the
	// slice before the next call and never modifies it.
	Intents(w *World) []Intent
	// CollisionsApply reports whether simultaneous transmissions to one
	// receiver destroy each other. The OPT oracle returns false.
	CollisionsApply() bool
	// Overhears reports whether non-targeted awake neighbors of a
	// successful sender may also receive the packet (DBAO's mechanism).
	Overhears() bool
}

// TxOutcome classifies what happened to one transmission attempt.
type TxOutcome int

// Transmission outcomes reported to an Observer.
const (
	// TxSuccess: the receiver decoded the packet.
	TxSuccess TxOutcome = iota
	// TxLoss: the link dropped the packet (Bernoulli loss).
	TxLoss
	// TxCollision: simultaneous transmissions destroyed each other.
	TxCollision
	// TxBusy: the receiver was itself transmitting (semi-duplex).
	TxBusy
	// TxRedundant: the receiver had already decoded the packet this slot
	// from another (oracle-mode) sender.
	TxRedundant
	// TxSync: the sender mis-estimated the receiver's wake slot (local
	// synchronization error) and transmitted into silence.
	TxSync
	// TxJammed: the receiver sat inside an active jamming region
	// (fault-schedule regional outage) and could not decode anything.
	TxJammed
)

// String implements fmt.Stringer.
func (o TxOutcome) String() string {
	switch o {
	case TxSuccess:
		return "success"
	case TxLoss:
		return "loss"
	case TxCollision:
		return "collision"
	case TxBusy:
		return "busy"
	case TxRedundant:
		return "redundant"
	case TxSync:
		return "sync-miss"
	case TxJammed:
		return "jammed"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Observer receives engine events; attach one via Config.Observer for
// tracing, debugging or custom metrics. Methods are called synchronously
// from the engine loop in deterministic order.
type Observer interface {
	// OnInject fires when the source generates a packet.
	OnInject(t int64, packet int)
	// OnTransmit fires for every transmission attempt with its outcome.
	OnTransmit(t int64, from, to, packet int, outcome TxOutcome)
	// OnOverhear fires when a non-targeted node receives a packet for free.
	OnOverhear(t int64, from, node, packet int)
	// OnCovered fires when a packet reaches the coverage target.
	OnCovered(t int64, packet int)
}

// FuncProtocol adapts plain functions to the Protocol interface, for quick
// experiments and tests that don't warrant a named type. Nil hooks default
// to no-ops (and no intents).
type FuncProtocol struct {
	// ProtocolName is reported by Name (default "func").
	ProtocolName string
	// ResetFunc is called once per run before the first slot.
	ResetFunc func(w *World)
	// IntentsFunc produces the per-slot transmissions.
	IntentsFunc func(w *World) []Intent
	// Collisions and Overhearing configure the engine's resolution rules.
	Collisions  bool
	Overhearing bool
}

// Name implements Protocol.
func (f *FuncProtocol) Name() string {
	if f.ProtocolName == "" {
		return "func"
	}
	return f.ProtocolName
}

// Reset implements Protocol.
func (f *FuncProtocol) Reset(w *World) {
	if f.ResetFunc != nil {
		f.ResetFunc(w)
	}
}

// Intents implements Protocol.
func (f *FuncProtocol) Intents(w *World) []Intent {
	if f.IntentsFunc == nil {
		return nil
	}
	return f.IntentsFunc(w)
}

// CollisionsApply implements Protocol.
func (f *FuncProtocol) CollisionsApply() bool { return f.Collisions }

// Overhears implements Protocol.
func (f *FuncProtocol) Overhears() bool { return f.Overhearing }

var _ Protocol = (*FuncProtocol)(nil)

// Config parameterizes one simulation run.
//
// Schedules are static for the whole run. The engine works on the paper's
// compact time scale (Section III): when the schedules' hyperperiod is
// small enough to bucket, it steps over slots at which no node is
// scheduled awake, so it calls the protocol only on slots where some node
// is awake or a packet is injected, and it polls Interrupt only on those
// visited slots. Results are the same as visiting every slot for any
// protocol that draws no randomness and keeps no per-call state on a slot
// with nobody awake; every protocol in internal/flood does so. Skipped
// slots still count in TotalSlots.
type Config struct {
	Graph     *topology.Graph
	Schedules []*schedule.Schedule
	Protocol  Protocol
	// M is the number of packets flooded (paper default: 100).
	M int
	// InjectInterval is the slot spacing between injections (default 1).
	InjectInterval int
	// Coverage is the delivery-ratio target defining "flooding delay"
	// (paper: 0.99, excluding the worst-connected sensors).
	Coverage float64
	// MaxSlots caps the run; 0 derives a generous default.
	MaxSlots int64
	// Seed drives all randomness (link loss and protocol decisions).
	Seed uint64
	// Observer, when non-nil, receives every engine event.
	Observer Observer
	// RecordReceptions copies the full per-node reception-time matrix into
	// Result.NodeRecvTime (M×N int64s) for per-node delay-distribution
	// analysis.
	RecordReceptions bool
	// SyncErrorProb models imperfect local synchronization (Section III-B
	// assumes it is perfect): with this probability, a transmission is
	// fired at a mis-estimated wake slot and reaches nobody, wasting the
	// sender's slot. Must be in [0, 1).
	SyncErrorProb float64
	// Faults, when non-nil, is a deterministic fault-injection schedule
	// (package fault): Gilbert–Elliott bursty link degradation, node
	// crash/reboot churn, and transient jamming outages, all compiled
	// against the run seed's dedicated "fault" RNG stream so attaching a
	// schedule never perturbs the loss/sync/protocol streams — an empty
	// schedule reproduces the unfaulted run bit-for-bit. See
	// docs/FAULTS.md.
	Faults *fault.Schedule
	// Interrupt, when non-nil, is polled once at the top of every slot.
	// Returning true aborts the run immediately with an error wrapping
	// ErrInterrupted. The hook runs on the engine's hot path and must be
	// cheap; the batch runner (internal/runner) uses it to impose
	// wall-clock timeouts, slot budgets, and context cancellation without
	// leaking a runaway simulation goroutine. The hook is polled only on
	// visited slots (see below), so an interrupt raised during a skipped
	// stretch is delivered at the next visited slot.
	Interrupt func(slot int64) bool
	// Telemetry, when non-nil, receives cheap always-on counters from the
	// run: slots visited/skipped, execution-path selection, transmission
	// attempts by outcome, packet injection/coverage progress, and fault
	// events (see docs/OBSERVABILITY.md for the catalog). Counters update
	// live — a slot tick every visited slot, accumulator drains every few
	// thousand slots and at run end — and never affect results: attaching a
	// registry touches no RNG stream and changes no engine decision. One
	// registry may be shared by many concurrent runs (the batch runner's
	// fan-out); values then aggregate across runs. When nil (the default),
	// the hot path pays exactly one predictable branch per slot.
	Telemetry *telemetry.Registry
	// Workers is ignored. Every slot phase runs inline on the caller's
	// goroutine; the field once sized a per-run worker pool and is kept so
	// that existing callers still compile. Results never depend on it.
	Workers int
}

func (c *Config) validate() error {
	if c.Graph == nil {
		return fmt.Errorf("sim: nil graph")
	}
	if len(c.Schedules) != c.Graph.N() {
		return fmt.Errorf("sim: %d schedules for %d nodes", len(c.Schedules), c.Graph.N())
	}
	for i, s := range c.Schedules {
		if s == nil {
			return fmt.Errorf("sim: nil schedule for node %d", i)
		}
	}
	if c.Protocol == nil {
		return fmt.Errorf("sim: nil protocol")
	}
	if c.M < 1 {
		return fmt.Errorf("sim: M = %d must be >= 1", c.M)
	}
	if c.InjectInterval < 0 {
		return fmt.Errorf("sim: negative inject interval")
	}
	if c.Coverage < 0 || c.Coverage > 1 {
		return fmt.Errorf("sim: coverage %v outside [0,1]", c.Coverage)
	}
	if c.SyncErrorProb < 0 || c.SyncErrorProb >= 1 {
		return fmt.Errorf("sim: sync error probability %v outside [0,1)", c.SyncErrorProb)
	}
	if err := c.Faults.Validate(c.Graph); err != nil {
		return err
	}
	return nil
}

// Result captures a run's metrics.
type Result struct {
	Protocol string
	M        int
	// CoverNodes is the node count that defines packet completion
	// (⌈coverage × N⌉, where N includes the source).
	CoverNodes int
	// InjectTime[p] is the slot at which packet p entered the network.
	InjectTime []int64
	// CoverTime[p] is the slot at which packet p reached CoverNodes nodes,
	// or -1 if it never did within the horizon.
	CoverTime []int64
	// Delay[p] = CoverTime[p] - InjectTime[p] (the paper's flooding delay),
	// or -1 for uncovered packets.
	Delay []int64
	// FirstHopDelay[p] is the delay until the packet left the source (the
	// transmission-delay component separated in Fig. 9), or -1.
	FirstHopDelay []int64

	Transmissions     int
	LossFailures      int
	CollisionFailures int
	BusyFailures      int
	SyncFailures      int
	// JamFailures counts transmissions that targeted a receiver inside an
	// active fault-schedule jamming region.
	JamFailures int
	Overheard   int
	// Crashes / Reboots count applied fault-schedule churn events;
	// CrashDropped totals the packet copies crashing nodes lost (each must
	// be re-disseminated for the flood to complete).
	Crashes      int
	Reboots      int
	CrashDropped int
	// Captures is always 0. Colliding frames are all lost, as the paper
	// models them; the field is kept so that existing callers and stored
	// results still load.
	Captures  int
	TxPerNode []int
	// AwakeSlotsPerNode counts each node's scheduled active slots over the
	// run — the radio-on time that dominates its energy budget. Slots spent
	// transmitting outside the node's own schedule are counted in
	// TxPerNode, not here.
	AwakeSlotsPerNode []int64

	TotalSlots int64
	Completed  bool

	// NodeRecvTime[p][node] is the slot at which node received packet p
	// (-1 if never). Populated only when Config.RecordReceptions is set.
	NodeRecvTime [][]int64
}

// NodeDelays returns the per-node reception delays of packet p (reception
// slot minus injection slot), excluding nodes that never received it. It
// requires RecordReceptions; otherwise it returns nil.
func (r *Result) NodeDelays(p int) []int64 {
	if r.NodeRecvTime == nil || p < 0 || p >= len(r.NodeRecvTime) {
		return nil
	}
	var out []int64
	for _, rt := range r.NodeRecvTime[p] {
		if rt >= 0 {
			out = append(out, rt-r.InjectTime[p])
		}
	}
	return out
}

// Failures returns the total transmission failures (the Fig. 11 metric):
// link losses plus collisions plus transmissions wasted on a busy
// (transmitting) receiver plus synchronization misses plus receptions
// destroyed by jamming.
func (r *Result) Failures() int {
	return r.LossFailures + r.CollisionFailures + r.BusyFailures + r.SyncFailures + r.JamFailures
}

// MeanDelay returns the average per-packet flooding delay in slots over
// covered packets, or NaN if none were covered.
func (r *Result) MeanDelay() float64 {
	sum, n := 0.0, 0
	for _, d := range r.Delay {
		if d >= 0 {
			sum += float64(d)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
