// Package roofline implements the roofline performance model: the
// attainable flop rate of a kernel on a machine is the minimum of the
// machine's peak and its memory bandwidth times the kernel's arithmetic
// intensity. The keynote's W8 — mismatching the algorithm to the machine
// balance — is exactly operating far below the ridge point.
package roofline

import "tenways/internal/machine"

// Point is one kernel placed on a machine's roofline.
type Point struct {
	Kernel    string
	Intensity float64 // flops per DRAM byte
	// Attainable is the model bound in flop/s for a full node.
	Attainable float64
	// Bound names the limiting resource: "memory" or "compute".
	Bound string
}

// Attainable returns the roofline bound in flop/s for a kernel of the
// given arithmetic intensity (flops/byte) on the machine.
func Attainable(s *machine.Spec, intensity float64) float64 {
	mem := s.DRAM.BytesPerSec * intensity
	peak := s.PeakFlopsPerNode()
	if mem < peak {
		return mem
	}
	return peak
}

// Classify places a named kernel on the machine's roofline.
func Classify(s *machine.Spec, kernel string, intensity float64) Point {
	p := Point{Kernel: kernel, Intensity: intensity, Attainable: Attainable(s, intensity)}
	if intensity < s.RidgeIntensity() {
		p.Bound = "memory"
	} else {
		p.Bound = "compute"
	}
	return p
}

// Efficiency returns the fraction of node peak the kernel can attain.
func Efficiency(s *machine.Spec, intensity float64) float64 {
	return Attainable(s, intensity) / s.PeakFlopsPerNode()
}

// TimeSec returns the model execution time of `flops` total flops at the
// given intensity on one node.
func TimeSec(s *machine.Spec, flops, intensity float64) float64 {
	return flops / Attainable(s, intensity)
}
