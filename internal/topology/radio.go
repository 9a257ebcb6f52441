package topology

import "math"

// RadioModel maps transmitter-receiver distance to an expected packet
// reception ratio using the classic log-distance path-loss channel combined
// with the Zuniga-Krishnamachari link-layer model for non-coherent FSK with
// Manchester encoding (the CC1000/mica2 analysis that underlies most WSN
// link-quality studies, including the intermediate "transitional region"
// visible in the GreenOrbs RSSI data the paper uses).
//
// The shadowing term is supplied externally (per-link, by the generator) so
// that a RadioModel value itself is a pure function and safe for concurrent
// use.
type RadioModel struct {
	// PL0 is the path loss in dB at the reference distance D0.
	PL0 float64
	// D0 is the reference distance in meters.
	D0 float64
	// Exponent is the path-loss exponent (forest: ~3.0-4.0).
	Exponent float64
	// ShadowStd is the log-normal shadowing standard deviation in dB;
	// generators draw one Gaussian per link and pass it to PRR.
	ShadowStd float64
	// TxPower is the transmit power in dBm.
	TxPower float64
	// NoiseFloor is the receiver noise floor in dBm.
	NoiseFloor float64
	// FrameBytes is the frame length in bytes used by the PRR computation.
	FrameBytes int
	// BandwidthRatio is the noise-bandwidth to data-rate ratio (B_N/R);
	// 0.64 for the CC1000-style radio in the reference analysis.
	BandwidthRatio float64
}

// ForestRadio returns a radio model calibrated for a dense forest
// deployment like GreenOrbs: strong attenuation (exponent 3.5), noticeable
// shadowing from trunks and canopy, CC2420-class transmit power.
func ForestRadio() RadioModel {
	return RadioModel{
		PL0:            55,
		D0:             1,
		Exponent:       3.5,
		ShadowStd:      4.0,
		TxPower:        0,
		NoiseFloor:     -105,
		FrameBytes:     50,
		BandwidthRatio: 0.64,
	}
}

// OpenFieldRadio returns a model for unobstructed deployments (exponent
// 2.4, light shadowing), useful for comparison experiments.
func OpenFieldRadio() RadioModel {
	m := ForestRadio()
	m.Exponent = 2.4
	m.ShadowStd = 2.0
	return m
}

// PathLoss returns the deterministic path loss in dB at distance d meters
// (shadowing excluded). Distances below D0 are clamped to D0.
func (m RadioModel) PathLoss(d float64) float64 {
	if d < m.D0 {
		d = m.D0
	}
	return m.PL0 + 10*m.Exponent*math.Log10(d/m.D0)
}

// SNR returns the signal-to-noise ratio in dB at distance d with the given
// shadowing draw (dB, typically Gaussian with std ShadowStd).
func (m RadioModel) SNR(d, shadowDB float64) float64 {
	return m.TxPower - m.PathLoss(d) - shadowDB - m.NoiseFloor
}

// PRR returns the expected packet reception ratio at distance d with the
// given shadowing draw. The result is in [0, 1].
func (m RadioModel) PRR(d, shadowDB float64) float64 {
	return m.prrFromSNR(m.SNR(d, shadowDB))
}

// prrFromSNR implements the NCFSK/Manchester bit-error model:
//
//	Pb  = 1/2 · exp(−SNR_lin/2 · 1/BandwidthRatio)
//	PRR = (1 − Pb)^(8·2·FrameBytes)   (Manchester doubles the bits)
func (m RadioModel) prrFromSNR(snrDB float64) float64 {
	snrLin := math.Pow(10, snrDB/10)
	pb := 0.5 * math.Exp(-snrLin/2/m.BandwidthRatio)
	bits := float64(8 * 2 * m.FrameBytes)
	prr := math.Pow(1-pb, bits)
	if prr < 0 {
		return 0
	}
	if prr > 1 {
		return 1
	}
	return prr
}

// snrCut returns an SNR in dB below which prrFromSNR is certainly under
// minPRR: prrFromSNR inverted in closed form,
//
//	Pb      = 1 − minPRR^(1/bits)
//	SNR_lin = −2·BandwidthRatio·ln(2·Pb)
//
// less a 1e-6 dB margin that dwarfs the rounding of either direction
// (the computed inverse sits within 1e-13 dB of the forward chain's true
// threshold for minPRR from 0.01 to 0.99). The link builder rejects a
// pair whose SNR is below the cut without evaluating the PRR chain and
// runs the exact test on everything else, so the cut changes cost, never
// output. For minPRR in (0, 1); the cut is −Inf or NaN, and cuts
// nothing, when no SNR can push the PRR under minPRR or the radio is
// degenerate.
func (m RadioModel) snrCut(minPRR float64) float64 {
	const margin = 1e-6
	bits := float64(8 * 2 * m.FrameBytes)
	pb := -math.Expm1(math.Log(minPRR) / bits)
	if !(pb < 0.5) {
		return math.Inf(-1)
	}
	return 10*math.Log10(-2*m.BandwidthRatio*math.Log(2*pb)) - margin
}

// ConnectedRange returns the largest distance at which the shadowing-free
// PRR still exceeds the threshold. It brackets by doubling and then
// bisects; the result is accurate to ~1 cm.
func (m RadioModel) ConnectedRange(prrThreshold float64) float64 {
	if prrThreshold <= 0 || prrThreshold >= 1 {
		panic("topology: ConnectedRange threshold must be in (0,1)")
	}
	lo, hi := m.D0, m.D0*2
	for m.PRR(hi, 0) > prrThreshold {
		lo = hi
		hi *= 2
		if hi > 1e7 {
			return hi // effectively unbounded for this configuration
		}
	}
	for hi-lo > 0.01 {
		mid := (lo + hi) / 2
		if m.PRR(mid, 0) > prrThreshold {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
