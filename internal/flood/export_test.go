package flood

// setDeferProb pins the shared defer-to-reception probability. Zeroing it
// removes the protocols' only unconditional randomness, putting them on
// the deterministic subspace the hand-derived tests pin. Returns a
// restore function.
func setDeferProb(p float64) func() {
	old := deferProb
	deferProb = p
	return func() { deferProb = old }
}
