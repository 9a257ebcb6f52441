// Command figures regenerates the paper's evaluation (Table I and Figures
// 3 and 5-11) and the repository's extension studies as text charts and
// data tables. The figure IDs, their aliases and the split between paper
// figures and extensions come from one table, experiments.Figures; -h
// lists the IDs.
//
// Usage:
//
//	figures [-fig all|extensions|fig3,table1,...] [-quick] [-m 100] [-runs 1]
//	        [-toposeed 1] [-seed 1] [-workers 0] [-progress] [-out DIR]
//
// Analytic figures are exact; simulation figures run the simulator on
// synthetic topologies. -quick cuts the simulated workload (M=20, four
// duty points) while preserving every qualitative shape. Each simulation
// figure runs all of its floods as one internal/runner batch: -workers
// bounds the pool (results never depend on it) and -progress prints a
// throttled jobs/ETA/throughput line to stderr. Figures are emitted in the
// order asked, and a table entry that emits several (fig10 and fig11)
// runs once however many of them are asked for.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"ldcflood/internal/experiments"
	"ldcflood/internal/runner"
)

func main() {
	var (
		figFlag  = flag.String("fig", "all", "comma-separated figure ids ("+strings.Join(figureIDs(), ", ")+"), 'all' (paper figures) or 'extensions'")
		quick    = flag.Bool("quick", false, "cut-down simulation effort (M=20, 4 duty points)")
		m        = flag.Int("m", 0, "packets per flood (default: 100, or 20 with -quick)")
		runs     = flag.Int("runs", 1, "independent runs to average per configuration (nodecdf, syncerr, backlog and scale run once, hetero three times)")
		topoSeed = flag.Uint64("toposeed", 1, "synthetic GreenOrbs topology seed")
		seed     = flag.Uint64("seed", 1, "simulation seed (schedules + link loss)")
		outDir   = flag.String("out", "", "write each figure to <dir>/<id>.txt instead of stdout")
		workers  = flag.Int("workers", 0, "batch-runner workers for each simulation figure (0 = GOMAXPROCS); results never depend on it")
		progress = flag.Bool("progress", false, "print live batch progress to stderr while simulation figures run")
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
	picks, err := resolve(figFlag)
	if err != nil {
		return err
	}
	done := make(map[int][]*experiments.FigureData)
	for _, p := range picks {
		figs, ok := done[p.entry]
		if !ok {
			if figs, err = experiments.Figures[p.entry].Run(opts); err != nil {
				return err
			}
			done[p.entry] = figs
		}
		fd := figs[slices.Index(experiments.Figures[p.entry].IDs, p.id)]
		if outDir == "" {
			fmt.Println(fd.Render())
			continue
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(outDir, fd.ID+".txt"), []byte(fd.Render()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// pick is one requested figure: an ID and the index of the table entry
// that emits it.
type pick struct {
	entry int
	id    string
}

// resolve maps a -fig value to the figures it asks for, in the order
// asked: "all" is every paper figure and "extensions" every extension
// study, in table order; otherwise each comma-separated name is an ID or
// an alias of one.
func resolve(figFlag string) ([]pick, error) {
	var picks []pick
	if figFlag == "all" || figFlag == "extensions" {
		for i, e := range experiments.Figures {
			if e.Extension == (figFlag == "extensions") {
				for _, id := range e.IDs {
					picks = append(picks, pick{i, id})
				}
			}
		}
		return picks, nil
	}
	for _, name := range strings.Split(figFlag, ",") {
		p, ok := lookup(strings.TrimSpace(strings.ToLower(name)))
		if !ok {
			return nil, fmt.Errorf("unknown figure %q (want all, extensions or a comma list of %s)", name, strings.Join(figureIDs(), ", "))
		}
		picks = append(picks, p)
	}
	return picks, nil
}

// lookup finds the table entry that emits the figure an ID or alias names.
func lookup(name string) (pick, bool) {
	for i, e := range experiments.Figures {
		id, ok := e.Aliases[name]
		if !ok && slices.Contains(e.IDs, name) {
			id, ok = name, true
		}
		if ok {
			return pick{i, id}, true
		}
	}
	return pick{}, false
}

// figureIDs lists every figure ID in table order.
func figureIDs() []string {
	var ids []string
	for _, e := range experiments.Figures {
		ids = append(ids, e.IDs...)
	}
	return ids
}
