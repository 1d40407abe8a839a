// Package energy provides joule accounting for the tenways modeled plane.
// A Meter accumulates energy by component (flops, each memory level,
// network, idle/static power) as cost-model code charges it; a Breakdown is
// the immutable result. The keynote's headline metric — how much science per
// joule — is computed by SciencePerJoule.
package energy

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Component names used across the suite. Additional free-form components
// are allowed; these constants keep the common ones spelled consistently.
const (
	Flops   = "flops"
	DRAM    = "dram"
	Network = "network"
	Idle    = "idle"
	Static  = "static"
)

// Meter accumulates joules by component. It is safe for concurrent use, so
// the measured plane's workers and the DES's processes can share one.
type Meter struct {
	mu sync.Mutex
	j  map[string]float64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{j: make(map[string]float64)}
}

// Add charges joules to the named component. Negative charges are rejected
// with a panic: energy only accumulates, and a negative charge is always a
// cost-model bug.
func (m *Meter) Add(component string, joules float64) {
	if joules < 0 {
		panic(fmt.Sprintf("energy: negative charge %g to %q", joules, component))
	}
	m.mu.Lock()
	m.j[component] += joules
	m.mu.Unlock()
}

// Total returns the sum over all components, added in Breakdown's order so
// that equal meters give bit-identical totals.
func (m *Meter) Total() float64 { return m.Breakdown().TotalJoules }

// Breakdown returns an immutable snapshot sorted by descending joules
// (ties broken by name for determinism).
func (m *Meter) Breakdown() Breakdown {
	m.mu.Lock()
	defer m.mu.Unlock()
	b := Breakdown{}
	for name, v := range m.j {
		b.Components = append(b.Components, ComponentJoules{Name: name, Joules: v})
	}
	sort.Slice(b.Components, func(i, k int) bool {
		ci, ck := b.Components[i], b.Components[k]
		if ci.Joules != ck.Joules {
			return ci.Joules > ck.Joules
		}
		return ci.Name < ck.Name
	})
	// Sum in sorted order: float addition is not associative, and map
	// order changes from one iteration to the next.
	for _, c := range b.Components {
		b.TotalJoules += c.Joules
	}
	return b
}

// ComponentJoules is one component's share of a Breakdown.
type ComponentJoules struct {
	Name   string
	Joules float64
}

// Breakdown is a snapshot of a meter.
type Breakdown struct {
	TotalJoules float64
	Components  []ComponentJoules
}

// Joules returns the named component's energy, 0 if absent.
func (b Breakdown) Joules(component string) float64 {
	for _, c := range b.Components {
		if c.Name == component {
			return c.Joules
		}
	}
	return 0
}

// Fraction returns the named component's share of the total, 0 when the
// total is zero.
func (b Breakdown) Fraction(component string) float64 {
	if b.TotalJoules == 0 {
		return 0
	}
	return b.Joules(component) / b.TotalJoules
}

// String renders "total [name=x name=y ...]" with 4-significant-digit values.
func (b Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%.4gJ [", b.TotalJoules)
	for i, c := range b.Components {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s=%.4g", c.Name, c.Joules)
	}
	sb.WriteString("]")
	return sb.String()
}

// EDP returns the energy–delay product, the classic combined metric for
// comparing designs that trade time against energy: joules × seconds.
// Lower is better; unlike joules alone it cannot be gamed by simply
// running slower at lower power.
func EDP(joules, seconds float64) float64 { return joules * seconds }

// SciencePerJoule is the keynote's integrated metric: units of useful work
// (application-defined "science", e.g. simulated timesteps, solved systems)
// per joule consumed. Returns 0 when joules is 0 to keep tables clean.
func SciencePerJoule(scienceUnits, joules float64) float64 {
	if joules == 0 {
		return 0
	}
	return scienceUnits / joules
}
