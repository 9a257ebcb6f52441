// Tracing: attach a tracebin.Writer to a simulation, then decode the
// trace and mine it offline — per-node transmission load, outcome
// breakdown, and the packet timeline. This is the workflow for debugging
// a protocol or feeding the simulator's raw events into external
// analysis; written to a file, the same bytes print as text with
// cmd/tracecat.
package main

import (
	"bytes"
	"fmt"
	"log"
	"sort"

	"ldcflood/internal/flood"
	"ldcflood/internal/rngutil"
	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
	"ldcflood/internal/tracebin"
	"ldcflood/internal/tracelog"
)

func main() {
	g := topology.GreenOrbs(1)
	p, err := flood.New("dbao")
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	w := tracebin.NewWriter(&buf)
	res, err := sim.Run(sim.Config{
		Graph:     g,
		Schedules: schedule.AssignUniform(g.N(), 20, rngutil.New(3).SubName("schedule")),
		Protocol:  p,
		M:         10,
		Coverage:  0.99,
		Seed:      3,
		Observer:  w,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	size := buf.Len()

	events, _, err := tracebin.ReadAll(&buf)
	if err != nil {
		log.Fatal(err)
	}
	s := tracelog.Summarize(events)
	fmt.Printf("trace: %d events over slots [%d, %d] (%.1f KiB)\n",
		s.Events, s.FirstSlot, s.LastSlot, float64(size)/1024)
	fmt.Printf("transmissions: %d  outcomes:", s.Transmissions)
	for _, o := range []sim.TxOutcome{sim.TxSuccess, sim.TxLoss, sim.TxCollision, sim.TxBusy} {
		fmt.Printf(" %s=%d", o, s.Outcomes[o])
	}
	fmt.Printf("\noverheard: %d  covered packets: %d\n\n", s.Overheard, s.Covered)

	// Hottest transmitters — the relays carrying the flood.
	type load struct{ node, tx int }
	var loads []load
	for node, tx := range s.PerNodeTx {
		loads = append(loads, load{node, tx})
	}
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].tx != loads[j].tx {
			return loads[i].tx > loads[j].tx
		}
		return loads[i].node < loads[j].node
	})
	fmt.Println("busiest transmitters:")
	for i := 0; i < 5 && i < len(loads); i++ {
		fmt.Printf("  node %3d: %d transmissions (degree %d)\n",
			loads[i].node, loads[i].tx, g.Degree(loads[i].node))
	}

	// Packet timeline from the engine's own accounting.
	fmt.Println("\npacket timeline (inject -> 99% coverage):")
	for pkt := 0; pkt < res.M; pkt++ {
		fmt.Printf("  packet %d: slot %4d -> %4d (delay %d)\n",
			pkt, res.InjectTime[pkt], res.CoverTime[pkt], res.Delay[pkt])
	}
}
