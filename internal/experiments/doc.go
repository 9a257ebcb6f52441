// Package experiments regenerates the paper's evaluation and the
// repository's extension studies. Each driver returns a FigureData whose
// Render method draws the figure as a text chart plus data table. The
// Figures table lists every driver with the figure IDs it emits; each
// simulation driver builds all of its configs first and runs them as one
// internal/runner batch.
//
// Paper figures (DESIGN.md §4; run all with `cmd/figures -fig all`):
//
//	Fig3        Algorithm 1 worked example (N=4, M=2)
//	TableI      per-packet waitings, analytic vs simulated
//	Fig5        Theorem 1 delay limits vs M (both panels)
//	Fig6        Theorem 2 bounds for arbitrary N
//	Fig7        k-class link-loss delay predictions
//	Fig8        synthetic GreenOrbs topology + calibration stats
//	Fig9        per-packet delay vs index (OPT/DBAO/OF + tx-delay split)
//	Fig10And11  delay and failures vs duty cycle (+ analytic bound)
//
// Extension studies (run all with `cmd/figures -fig extensions`):
//
//	GaltonWatson        Lemma 1 sample-path convergence
//	HalfDuplex          Section IV-A2 type-2 slot cost
//	CrossLayer          Section VI joint (protocol, duty) optimization
//	ScheduleGranularity k active slots per k·T period vs the 1-slot model
//	NodeDelayCDF        per-node reception-delay distribution
//	SyncError           local-synchronization sensitivity (+ clocksync)
//	Heterogeneity       link-diversity gain at fixed mean PRR
//	Backlog             source-queue stability (Section IV-B breakdown)
//	Robustness          conclusions on a second deployment (testbed)
//	Faults              resilience under scripted fault injection
//	TrickleScalability  timer-protocol message load vs network size
//
// All simulation-backed drivers take SimOptions; PaperSimOptions mirrors
// the paper's parameters (M=100, duties 2–20%, 99% coverage) and
// QuickSimOptions cuts the workload while preserving every shape.
package experiments
