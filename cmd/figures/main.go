// Command figures regenerates the tables and figures of the paper's
// evaluation (Table I and Figures 3, 5, 6, 7, 8, 9, 10, 11) as text charts
// and data tables.
//
// Usage:
//
//	figures [-fig all|fig3,table1,fig5,...] [-quick] [-m 100] [-runs 1]
//	        [-toposeed 1] [-seed 1] [-workers 0] [-progress]
//
// Analytic figures are exact; simulation figures (8-11) run the simulator
// on the synthetic GreenOrbs topology. -quick cuts the simulated workload
// (M=20, four duty points) while preserving every qualitative shape. The
// simulation sweeps execute on the internal/runner batch executor:
// -workers bounds the pool (results never depend on it) and -progress
// prints a throttled jobs/ETA/throughput line to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ldcflood/internal/experiments"
	"ldcflood/internal/runner"
)

func main() {
	var (
		figFlag  = flag.String("fig", "all", "comma-separated figure ids (fig3, table1, fig5-fig11, gw, halfduplex, crosslayer, granularity, nodecdf, syncerr, hetero, backlog, robustness, faults, scale), 'all' (paper figures) or 'extensions'")
		quick    = flag.Bool("quick", false, "cut-down simulation effort (M=20, 4 duty points)")
		m        = flag.Int("m", 0, "packets per flood (default: 100, or 20 with -quick)")
		runs     = flag.Int("runs", 1, "independent runs to average per configuration")
		topoSeed = flag.Uint64("toposeed", 1, "synthetic GreenOrbs topology seed")
		seed     = flag.Uint64("seed", 1, "simulation seed (schedules + link loss)")
		outDir   = flag.String("out", "", "write each figure to <dir>/<id>.txt instead of stdout")
		workers  = flag.Int("workers", 0, "batch-runner workers for simulation sweeps (0 = GOMAXPROCS); results never depend on it")
		progress = flag.Bool("progress", false, "print live batch progress to stderr during simulation sweeps")
	)
	flag.Parse()

	opts := experiments.PaperSimOptions()
	if *quick {
		opts = experiments.QuickSimOptions()
	}
	if *m > 0 {
		opts.M = *m
	}
	opts.Runs = *runs
	opts.TopoSeed = *topoSeed
	opts.Seed = *seed
	opts.Workers = *workers
	if *progress {
		opts.Progress = runner.ProgressPrinter(os.Stderr, time.Second)
	}

	if err := run(*figFlag, opts, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(figFlag string, opts experiments.SimOptions, outDir string) error {
	emit := func(fd *experiments.FigureData) error {
		if outDir == "" {
			fmt.Println(fd.Render())
			return nil
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(outDir, fd.ID+".txt"), []byte(fd.Render()), 0o644)
	}
	switch figFlag {
	case "all":
		figs, err := experiments.All(opts)
		for _, fd := range figs {
			if e := emit(fd); e != nil {
				return e
			}
		}
		return err
	case "extensions":
		figs, err := experiments.AllExtensions(opts)
		for _, fd := range figs {
			if e := emit(fd); e != nil {
				return e
			}
		}
		return err
	}
	for _, id := range strings.Split(figFlag, ",") {
		fd, err := one(strings.TrimSpace(strings.ToLower(id)), opts)
		if err != nil {
			return err
		}
		if err := emit(fd); err != nil {
			return err
		}
	}
	return nil
}

func one(id string, opts experiments.SimOptions) (*experiments.FigureData, error) {
	switch id {
	case "fig3", "3":
		return experiments.Fig3()
	case "table1", "tablei", "t1":
		return experiments.TableI()
	case "fig5", "5":
		return experiments.Fig5()
	case "fig6", "6":
		return experiments.Fig6()
	case "fig7", "7":
		return experiments.Fig7()
	case "fig8", "8":
		return experiments.Fig8(opts.TopoSeed)
	case "fig9", "9":
		return experiments.Fig9(opts)
	case "fig10", "10":
		f10, _, err := experiments.Fig10And11(opts)
		return f10, err
	case "fig11", "11":
		_, f11, err := experiments.Fig10And11(opts)
		return f11, err
	case "crosslayer":
		// Beyond the paper: the Section VI cross-layer future-work sweep.
		return experiments.CrossLayer(opts)
	case "granularity":
		// Beyond the paper: schedule granularity at fixed duty ratio.
		return experiments.ScheduleGranularity(opts)
	case "nodecdf":
		// Beyond the paper: per-node reception-delay distribution.
		return experiments.NodeDelayCDF(opts)
	case "syncerr":
		// Beyond the paper: local-synchronization sensitivity.
		return experiments.SyncError(opts)
	case "halfduplex":
		// Section IV-A2: the cost of splitting type-2 slots.
		return experiments.HalfDuplex()
	case "hetero":
		// Section IV-B: the heterogeneous-link case, by simulation.
		return experiments.Heterogeneity(opts)
	case "backlog":
		// Section IV-B/V: the source-queue blow-up under saturation.
		return experiments.Backlog(opts)
	case "robustness":
		// Beyond the paper: the conclusions on a second deployment.
		return experiments.Robustness(opts)
	case "gw":
		// Lemma 1 illustrated: normalized branching-process sample paths.
		return experiments.GaltonWatson()
	case "faults":
		// Resilience under scripted fault injection (internal/fault).
		return experiments.Faults(opts)
	case "scale":
		// Timer-protocol message load vs network size (300 → 100k nodes,
		// density-preserving scaled GreenOrbs) against the Meyfroyt et al.
		// constant-per-node Trickle prediction.
		return experiments.TrickleScalability(opts)
	default:
		return nil, fmt.Errorf("unknown figure %q (fig3, table1, fig5-fig11, gw, halfduplex, crosslayer, granularity, nodecdf, syncerr, hetero, backlog, robustness, faults, scale)", id)
	}
}
