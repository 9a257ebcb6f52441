package topology

import (
	"math"
	"testing"
)

// TestSNRCutNeverAboveThreshold checks the link builder's early reject:
// below snrCut the exact prrFromSNR must be under minPRR, so rejecting
// there can never drop a link. It walks 10⁴ adjacent float64s on each
// side of the cut, sweeps the decibel below it densely, and checks the
// cut is tight (the exact test passes a few margins above it), so the cut
// actually saves work.
func TestSNRCutNeverAboveThreshold(t *testing.T) {
	for _, rc := range []struct {
		name  string
		radio RadioModel
	}{
		{"forest", ForestRadio()},
		{"openfield", OpenFieldRadio()},
		{"testbed", testbedRadio()},
	} {
		for _, minPRR := range []float64{0.05, 0.1, 0.3, 0.5, 0.9} {
			m := rc.radio
			cut := m.snrCut(minPRR)
			if math.IsNaN(cut) || math.IsInf(cut, 0) {
				t.Fatalf("%s minPRR=%v: cut %v", rc.name, minPRR, cut)
			}
			below := func(snr float64) {
				if snr < cut && m.prrFromSNR(snr) >= minPRR {
					t.Fatalf("%s minPRR=%v: PRR(%v dB) = %v clears minPRR below the cut %v",
						rc.name, minPRR, snr, m.prrFromSNR(snr), cut)
				}
			}
			down, up := cut, cut
			for i := 0; i < 10000; i++ {
				down = math.Nextafter(down, math.Inf(-1))
				up = math.Nextafter(up, math.Inf(1))
				below(down)
				below(up)
			}
			const steps = 100000
			for i := 0; i <= steps; i++ {
				below(cut - float64(i)/steps)
			}
			if m.prrFromSNR(cut+1e-5) < minPRR {
				t.Fatalf("%s minPRR=%v: cut %v is loose: PRR just above it is %v",
					rc.name, minPRR, cut, m.prrFromSNR(cut+1e-5))
			}
		}
	}
}

// TestSNRCutDegenerate pins the cases where nothing may be cut.
func TestSNRCutDegenerate(t *testing.T) {
	m := ForestRadio()
	// 0.5^bits is the PRR floor at zero linear SNR; at or below it every
	// SNR clears minPRR.
	if c := m.snrCut(math.Pow(0.5, 800) / 2); !math.IsInf(c, -1) {
		t.Fatalf("cut %v for a minPRR under the PRR floor, want -Inf", c)
	}
	m.BandwidthRatio = 0
	if c := m.snrCut(0.1); c > -1e300 && !math.IsNaN(c) {
		t.Fatalf("cut %v for a zero bandwidth ratio cuts real SNRs", c)
	}
}
