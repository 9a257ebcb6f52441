// Command tracecat reads a flooding event trace (the binary format of
// internal/tracebin, which every trace-writing command produces) and
// prints it as text, one event per line in the tracelog.Logger layout
// (see docs/TRACE.md).
//
// Usage:
//
//	tracecat [-o FILE] [-summary] [-validate] [FILE]
//
// With no FILE (or "-") the trace is read from stdin. The default action
// writes the text rendering to -o (stdout unless told otherwise), so
//
//	tracecat flood.tracebin
//
// prints a trace as readable text (flags must precede the file, as usual
// for the standard flag package). Input that does not open with the
// "LDCT" magic is an error.
//
// -summary prints event counts, outcome histogram, and the slot span
// instead of the events. -validate replays the trace against the
// simulator's physical rules (tracelog.Validate) and fails loudly on the
// first inconsistency. The two compose with each other and suppress the
// text rendering.
//
// A trace with a torn tail — a writer killed before its last buffered
// record drained — is read to the tear and reported as a warning on
// stderr, matching the crash tolerance of the sweep journal; corruption
// (bad magic, unknown record kind) is a hard error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"ldcflood/internal/sim"
	"ldcflood/internal/tracebin"
	"ldcflood/internal/tracelog"
)

// create opens the -o file; tests replace it to make Close fail.
var create = func(name string) (io.WriteCloser, error) { return os.Create(name) }

func main() {
	var (
		out      = flag.String("o", "", "output path for the text rendering (default stdout)")
		summary  = flag.Bool("summary", false, "print trace statistics instead of the events")
		validate = flag.Bool("validate", false, "check the trace against the simulator's physical rules instead of printing it")
	)
	flag.Parse()
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "tracecat: at most one input file")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *out, *summary, *validate); err != nil {
		fmt.Fprintln(os.Stderr, "tracecat:", err)
		os.Exit(1)
	}
}

func run(path, out string, summary, validate bool) (err error) {
	events, err := load(path)
	if err != nil {
		return err
	}
	if validate {
		if err := tracelog.Validate(events); err != nil {
			return fmt.Errorf("invalid trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "tracecat: %d events, trace is consistent\n", len(events))
	}
	if summary {
		return printSummary(os.Stdout, events)
	}
	if validate {
		return nil
	}

	var w io.Writer = os.Stdout
	if out != "" {
		f, ferr := create(out)
		if ferr != nil {
			return ferr
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}
	l := tracelog.NewLogger(w)
	for _, ev := range events {
		emit(l, ev)
	}
	return l.Flush()
}

// load decodes the whole input as a binary trace.
func load(path string) ([]tracelog.Event, error) {
	var r io.Reader = os.Stdin
	if path != "" && path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	events, torn, err := tracebin.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if torn {
		fmt.Fprintf(os.Stderr, "tracecat: warning: torn tail — trace ends mid-record, decoded the %d events before the tear\n", len(events))
	}
	return events, nil
}

// emit replays one decoded event into a logger, the text dual of
// tracebin.Writer.WriteEvent.
func emit(l *tracelog.Logger, ev tracelog.Event) {
	switch ev.Kind {
	case tracelog.KindInject:
		l.OnInject(ev.T, ev.Packet)
	case tracelog.KindTransmit:
		l.OnTransmit(ev.T, ev.From, ev.To, ev.Packet, ev.Outcome)
	case tracelog.KindOverhear:
		l.OnOverhear(ev.T, ev.From, ev.To, ev.Packet)
	case tracelog.KindCovered:
		l.OnCovered(ev.T, ev.Packet)
	}
}

// printSummary renders tracelog.Summarize as an aligned table with a
// deterministic outcome ordering.
func printSummary(w io.Writer, events []tracelog.Event) error {
	s := tracelog.Summarize(events)
	fmt.Fprintf(w, "events         %d\n", s.Events)
	fmt.Fprintf(w, "injections     %d\n", s.Injections)
	fmt.Fprintf(w, "transmissions  %d\n", s.Transmissions)
	outcomes := make([]sim.TxOutcome, 0, len(s.Outcomes))
	for o := range s.Outcomes {
		outcomes = append(outcomes, o)
	}
	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i] < outcomes[j] })
	for _, o := range outcomes {
		fmt.Fprintf(w, "  outcome %-12s %d\n", o, s.Outcomes[o])
	}
	fmt.Fprintf(w, "overheard      %d\n", s.Overheard)
	fmt.Fprintf(w, "covered        %d\n", s.Covered)
	fmt.Fprintf(w, "slots          %d..%d\n", s.FirstSlot, s.LastSlot)
	fmt.Fprintf(w, "active senders %d\n", len(s.PerNodeTx))
	return nil
}
