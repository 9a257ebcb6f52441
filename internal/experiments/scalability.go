package experiments

import (
	"fmt"

	"ldcflood/internal/metrics"
	"ldcflood/internal/schedule"
	"ldcflood/internal/topology"
)

// scaleDefaultSizes is the node-count ladder the scalability study climbs
// when SimOptions.ScaleSizes is empty: the GreenOrbs trace size up to the
// 100k-node scale workload, at constant node density
// (topology.ScaledGreenOrbsConfig).
var scaleDefaultSizes = []int{300, 1000, 3000, 10000, 30000, 100000}

// TrickleScalability measures control-message load versus network size for
// the timer-driven protocols: a single packet is flooded to 99% coverage
// on density-preserving scaled GreenOrbs instances, and the figure plots
// transmissions per node against N.
//
// The reference prediction is Meyfroyt et al.'s Trickle analysis ("On the
// scalability and message count of Trickle-based broadcasting schemes",
// and RFC 6206's design argument): with interval doubling and redundancy
// constant K, the steady per-interval transmission load is bounded by a
// constant per radio neighborhood, independent of network size — so at
// constant density total messages grow Θ(N) and messages per node stay
// flat as the network scales. The qualitative acceptance marker for this
// figure is therefore the flatness of the per-node series while N spans
// two to three decades; dflood's duplicate-suppression penalty is expected
// to track the same shape with its own constant.
func TrickleScalability(opts SimOptions) (*FigureData, error) {
	opts.normalize()
	sizes := opts.ScaleSizes
	if len(sizes) == 0 {
		sizes = scaleDefaultSizes
	}
	one := opts
	one.M, one.Runs = 1, 1
	if one.MaxSlots <= 0 {
		one.MaxSlots = 4_000_000
	}
	period := schedule.PeriodForDuty(0.05)
	fd := &FigureData{
		ID:     "scale",
		Title:  "Control-message load vs network size, single packet (scaled GreenOrbs, duty 5%)",
		XLabel: "nodes",
		YLabel: "transmissions per node",
	}
	fd.TableHeaders = []string{"nodes", "protocol", "messages", "msgs/node", "suppressed/node", "cover slots"}
	protocols := []string{"trickle", "dflood"}
	fd.Series = make([]Series, len(protocols))
	for i, name := range protocols {
		fd.Series[i] = Series{Name: name}
	}
	// Every cell, a protocol on a size, is one job of the figure's batch.
	// Each job keeps its own protocol instance, read afterwards for its
	// counters.
	var b batch
	for _, n := range sizes {
		g, err := topology.GenerateGreenOrbs(topology.ScaledGreenOrbsConfig(n), opts.TopoSeed)
		if err != nil {
			return nil, fmt.Errorf("experiments: scale: %d nodes: %w", n, err)
		}
		for _, name := range protocols {
			b.protocol(g, name, period, one)
		}
	}
	sims, err := b.run("scale", opts)
	if err != nil {
		return nil, err
	}
	for i, job := range b.jobs {
		name, n, res := protocols[i%len(protocols)], job.Graph.N(), sims[i]
		if !res.Completed {
			return nil, fmt.Errorf("experiments: scale: %s at %d nodes did not complete in %d slots", name, n, one.MaxSlots)
		}
		perNode := float64(res.Transmissions) / float64(n)
		_, suppressed, _ := metrics.ProtocolCounters(job.Protocol)
		s := &fd.Series[i%len(protocols)]
		s.X = append(s.X, float64(n))
		s.Y = append(s.Y, perNode)
		fd.TableRows = append(fd.TableRows, []string{
			fmt.Sprintf("%d", n),
			name,
			fmt.Sprintf("%d", res.Transmissions),
			fmt.Sprintf("%.2f", perNode),
			fmt.Sprintf("%.2f", float64(suppressed)/float64(n)),
			fmt.Sprintf("%d", res.CoverTime[0]),
		})
	}
	fd.Notes = append(fd.Notes,
		"Meyfroyt et al. predict constant per-node Trickle load at fixed density: total messages Θ(N), per-node series flat",
		"single-packet floods at duty 5%; density-preserving scaling, so only network extent (flood depth) grows with N",
	)
	return fd, nil
}
