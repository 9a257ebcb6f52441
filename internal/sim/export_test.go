package sim

// Test hooks. RunEverySlot is exported to the package's external tests,
// which flood real protocols from package flood.

// RunEverySlot is Run without the awake plan: the loop scans every
// schedule on every slot and visits every slot. It is the reference the
// empty-offset skip must reproduce bit for bit.
func RunEverySlot(cfg Config) (*Result, error) { return run(cfg, true) }
