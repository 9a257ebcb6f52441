package flood

// setAudibilityDenseLimit pins the dense/sparse carrier-sense cutoff so the
// spatial-hash audibility structure (a 100k-node production path) can be
// certified against the dense matrix on paper-scale graphs. Returns a
// restore function.
func setAudibilityDenseLimit(n int) func() {
	old := audibilityDenseLimit
	audibilityDenseLimit = n
	return func() { audibilityDenseLimit = old }
}

// setDeferProb pins the shared defer-to-reception probability. Zeroing it
// removes the protocols' only unconditional randomness, putting them on
// the deterministic subspace the hand-derived tests pin. Returns a
// restore function.
func setDeferProb(p float64) func() {
	old := deferProb
	deferProb = p
	return func() { deferProb = old }
}
