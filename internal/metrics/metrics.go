// Package metrics post-processes simulation results: aggregation across
// repeated seeds (the evaluation averages trace-driven runs), per-packet
// delay series for Fig. 9, failure totals for Fig. 11, and the
// energy/lifetime model behind the paper's "it is NOT always beneficial to
// set the duty cycle extremely low" conclusion (Section V-C2).
package metrics

import (
	"fmt"
	"math"

	"ldcflood/internal/sim"
	"ldcflood/internal/stats"
)

// Aggregate combines repeated runs of the same configuration (different
// seeds) into per-packet means and run-level summaries.
type Aggregate struct {
	Protocol string
	Runs     int
	// MeanDelayPerPacket[p] averages packet p's flooding delay over runs
	// that covered it; NaN if no run covered packet p.
	MeanDelayPerPacket []float64
	// MeanFirstHopPerPacket[p] averages the transmission-delay component.
	MeanFirstHopPerPacket []float64
	// Delay summarizes all per-packet delays pooled across runs.
	Delay stats.Summary
	// Failures/Transmissions/Overheard are per-run means.
	Failures      float64
	Transmissions float64
	Overheard     float64
	// CoveredFraction is the fraction of (run, packet) pairs that reached
	// the coverage target.
	CoveredFraction float64
}

// Combine aggregates results; all must come from the same protocol and M.
// It returns an error for empty or inconsistent input.
func Combine(results []*sim.Result) (*Aggregate, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("metrics: no results")
	}
	m := results[0].M
	name := results[0].Protocol
	for _, r := range results[1:] {
		if r.M != m || r.Protocol != name {
			return nil, fmt.Errorf("metrics: mixed results (%s/M=%d vs %s/M=%d)", name, m, r.Protocol, r.M)
		}
	}
	agg := &Aggregate{
		Protocol:              name,
		Runs:                  len(results),
		MeanDelayPerPacket:    make([]float64, m),
		MeanFirstHopPerPacket: make([]float64, m),
	}
	pooled := stats.NewDigest()
	covered := 0
	for p := 0; p < m; p++ {
		var acc, hop stats.Running
		for _, r := range results {
			if r.Delay[p] >= 0 {
				acc.Add(float64(r.Delay[p]))
				pooled.Add(float64(r.Delay[p]))
				covered++
			}
			if r.FirstHopDelay[p] >= 0 {
				hop.Add(float64(r.FirstHopDelay[p]))
			}
		}
		agg.MeanDelayPerPacket[p] = acc.Mean() // NaN when empty
		agg.MeanFirstHopPerPacket[p] = hop.Mean()
	}
	agg.Delay = pooled.Summary()
	for _, r := range results {
		agg.Failures += float64(r.Failures())
		agg.Transmissions += float64(r.Transmissions)
		agg.Overheard += float64(r.Overheard)
	}
	agg.Failures /= float64(len(results))
	agg.Transmissions /= float64(len(results))
	agg.Overheard /= float64(len(results))
	agg.CoveredFraction = float64(covered) / float64(m*len(results))
	return agg, nil
}

// EnergyModel captures the first-order sensor power budget used to reason
// about lifetime versus duty cycle. Defaults (DefaultEnergyModel) are
// CC2420-class figures.
type EnergyModel struct {
	// BatteryJoules is the usable battery energy.
	BatteryJoules float64
	// ActiveWatts is drawn while the radio is on (listen/receive).
	ActiveWatts float64
	// SleepWatts is drawn while dormant.
	SleepWatts float64
	// TxJoules is the extra energy per packet transmission.
	TxJoules float64
	// SlotSeconds is the duration of one time slot.
	SlotSeconds float64
}

// DefaultEnergyModel returns mica2/CC2420-class constants: 2×AA battery
// (~20 kJ), ~60 mW radio-on, ~3 µW sleep, ~0.1 mJ per transmission, 10 ms
// slots.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		BatteryJoules: 20000,
		ActiveWatts:   0.060,
		SleepWatts:    0.000003,
		TxJoules:      0.0001,
		SlotSeconds:   0.010,
	}
}

// LifetimeSeconds returns the expected node lifetime at the given duty
// ratio with txPerSecond average transmissions. Lifetime grows roughly
// linearly in 1/duty — the benefit side of low-duty-cycle operation.
func (e EnergyModel) LifetimeSeconds(duty, txPerSecond float64) float64 {
	if duty <= 0 || duty > 1 {
		panic(fmt.Sprintf("metrics: duty %v outside (0,1]", duty))
	}
	if txPerSecond < 0 {
		panic("metrics: negative tx rate")
	}
	power := e.ActiveWatts*duty + e.SleepWatts*(1-duty) + e.TxJoules*txPerSecond
	return e.BatteryJoules / power
}

// NetworkingGain is the paper's closing trade-off: the product view of
// what a duty cycle buys. It returns lifetime (seconds), flooding delay
// (seconds), and their ratio gain = lifetime / delay — the "networking
// gain" that first rises and then falls as the duty cycle decreases,
// showing it is not always beneficial to go extremely low.
func (e EnergyModel) NetworkingGain(duty float64, delaySlots float64, txPerSecond float64) (lifetime, delay, gain float64) {
	lifetime = e.LifetimeSeconds(duty, txPerSecond)
	delay = delaySlots * e.SlotSeconds
	if delay <= 0 || math.IsNaN(delay) {
		return lifetime, delay, math.NaN()
	}
	return lifetime, delay, lifetime / delay
}
