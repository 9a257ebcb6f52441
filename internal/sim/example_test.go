package sim_test

import (
	"fmt"

	"ldcflood/internal/schedule"
	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// A complete minimal simulation using FuncProtocol: flood one packet down
// a 4-node line with perfect links and always-on schedules — one hop per
// slot, full coverage after 2 slots.
func ExampleFuncProtocol() {
	g := topology.Line(4, 1)
	scheds := []*schedule.Schedule{
		schedule.AlwaysOn(), schedule.AlwaysOn(), schedule.AlwaysOn(), schedule.AlwaysOn(),
	}
	hopper := &sim.FuncProtocol{
		ProtocolName: "hopper",
		IntentsFunc: func(w *sim.World) []sim.Intent {
			var out []sim.Intent
			// The frontier lists the awake nodes missing a packet
			// that a neighbour holds; the source is never on it.
			for _, r := range w.Frontier() {
				if pkt := w.OldestNeeded(r-1, r); pkt >= 0 {
					out = append(out, sim.Intent{From: r - 1, To: r, Packet: pkt})
				}
			}
			return out
		},
		Collisions: true,
	}
	res, err := sim.Run(sim.Config{
		Graph: g, Schedules: scheds, Protocol: hopper,
		M: 1, Coverage: 1, Seed: 1,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("delay:", res.Delay[0], "slots, transmissions:", res.Transmissions)
	// Output: delay: 2 slots, transmissions: 3
}

// Sleep latency in action: with a 10% duty cycle receiver awake only at
// slot 7, the packet waits for the receiver's schedule.
func ExampleRun_sleepLatency() {
	g := topology.Line(2, 1)
	scheds := []*schedule.Schedule{
		schedule.AlwaysOn(),
		schedule.NewSingleSlot(10, 7),
	}
	forward := &sim.FuncProtocol{
		IntentsFunc: func(w *sim.World) []sim.Intent {
			if w.IsAwake(1) {
				if pkt := w.OldestNeeded(0, 1); pkt >= 0 {
					return []sim.Intent{{From: 0, To: 1, Packet: pkt}}
				}
			}
			return nil
		},
	}
	res, _ := sim.Run(sim.Config{
		Graph: g, Schedules: scheds, Protocol: forward,
		M: 1, Coverage: 1, Seed: 1,
	})
	fmt.Println("sleep latency:", res.Delay[0], "slots")
	// Output: sleep latency: 7 slots
}
