package kernels

// NBodyFlops returns the flop count of one direct step (≈20 per pair).
func NBodyFlops(n int) float64 { return 20 * float64(n) * float64(n) }

// NBodyIntensity returns the arithmetic intensity of the direct method
// when positions fit in cache: n² interactions over 32n streamed bytes —
// the flop-rich end of the roofline (W8's "good" kernel).
func NBodyIntensity(n int) float64 {
	return NBodyFlops(n) / (32 * float64(n))
}
