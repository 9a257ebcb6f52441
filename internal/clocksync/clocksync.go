// Package clocksync models the low-cost local synchronization the paper
// assumes (Section III-B, citing SenSys'09 [26][27]): each sensor's crystal
// drifts, neighbors exchange periodic time beacons, and between beacons a
// sender's estimate of its neighbor's clock accumulates error. The package
// simulates that process over a topology and converts the resulting
// per-link timing error into the probability that a unicast misses its
// receiver's wake slot — the quantity sim.Config.SyncErrorProb consumes and
// the syncerr experiment sweeps.
package clocksync

import (
	"fmt"
	"math"

	"ldcflood/internal/rngutil"
	"ldcflood/internal/stats"
	"ldcflood/internal/topology"
)

// Config parameterizes the clock and protocol model. Defaults follow
// commodity WSN hardware: ±30 ppm crystals, millisecond-scale beacon
// timestamping noise, beacons every few minutes.
type Config struct {
	// DriftPPMStd is the standard deviation of per-node crystal drift in
	// parts per million (each node draws one constant drift).
	DriftPPMStd float64
	// BeaconNoiseStd is the per-beacon timestamping error in seconds
	// (MAC-layer timestamping achieves ~1e-3 or better).
	BeaconNoiseStd float64
	// SyncInterval is the time between neighbor beacon exchanges, seconds.
	SyncInterval float64
	// Horizon is the simulated duration in seconds.
	Horizon float64
	// SamplesPerInterval controls error sampling density between beacons.
	SamplesPerInterval int
}

// DefaultConfig returns the commodity-hardware defaults.
func DefaultConfig() Config {
	return Config{
		DriftPPMStd:        30,
		BeaconNoiseStd:     0.001,
		SyncInterval:       120,
		Horizon:            3600,
		SamplesPerInterval: 8,
	}
}

func (c *Config) validate() error {
	if c.DriftPPMStd < 0 {
		return fmt.Errorf("clocksync: negative drift std")
	}
	if c.BeaconNoiseStd < 0 {
		return fmt.Errorf("clocksync: negative beacon noise")
	}
	if c.SyncInterval <= 0 {
		return fmt.Errorf("clocksync: sync interval must be positive")
	}
	if c.Horizon < c.SyncInterval {
		return fmt.Errorf("clocksync: horizon %v shorter than one sync interval %v", c.Horizon, c.SyncInterval)
	}
	if c.SamplesPerInterval <= 0 {
		return fmt.Errorf("clocksync: need positive samples per interval")
	}
	return nil
}

// Result reports the simulated synchronization quality.
type Result struct {
	// LinkErrors holds one summary of |timing error| (seconds) per
	// undirected link, in g.Links() order.
	LinkErrors []stats.Summary
	// AllErrors pools every sampled |error| across links (seconds).
	AllErrors stats.Summary
	// maxSamples retains the pooled samples for MissProbability.
	samples []float64
}

// Simulate runs the drift/beacon model over every link of g. Each node
// draws a constant drift; at every beacon the pairwise offset estimate is
// reset to a fresh noise draw; between beacons the error grows linearly
// with the relative drift. Deterministic for a given seed.
func Simulate(g *topology.Graph, cfg Config, seed uint64) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	root := rngutil.New(seed)
	driftRNG := root.SubName("drift")
	noiseRNG := root.SubName("noise")

	drift := make([]float64, g.N())
	for i := range drift {
		drift[i] = driftRNG.NormMeanStd(0, cfg.DriftPPMStd) * 1e-6
	}

	links := g.Links()
	res := &Result{LinkErrors: make([]stats.Summary, len(links))}
	intervals := int(cfg.Horizon / cfg.SyncInterval)
	for li, e := range links {
		relDrift := math.Abs(drift[e.U] - drift[e.V])
		var linkSamples []float64
		for iv := 0; iv < intervals; iv++ {
			base := math.Abs(noiseRNG.NormMeanStd(0, cfg.BeaconNoiseStd))
			for s := 1; s <= cfg.SamplesPerInterval; s++ {
				dt := cfg.SyncInterval * float64(s) / float64(cfg.SamplesPerInterval)
				err := base + relDrift*dt
				linkSamples = append(linkSamples, err)
				res.samples = append(res.samples, err)
			}
		}
		res.LinkErrors[li] = stats.Summarize(linkSamples)
	}
	res.AllErrors = stats.Summarize(res.samples)
	return res, nil
}

// MissProbability returns the fraction of sampled moments at which the
// timing error exceeds half a slot — i.e. the probability that a unicast
// aimed at a neighbor's wake slot arrives outside it. Feed this into
// sim.Config.SyncErrorProb. It panics for a non-positive slot duration.
func (r *Result) MissProbability(slotSeconds float64) float64 {
	if slotSeconds <= 0 {
		panic("clocksync: slot duration must be positive")
	}
	if len(r.samples) == 0 {
		return 0
	}
	miss := 0
	for _, e := range r.samples {
		if e > slotSeconds/2 {
			miss++
		}
	}
	return float64(miss) / float64(len(r.samples))
}
