package sim

// Decision is one request-path decision of a simulated run: the key it
// concerns and what the simulator decided (see sim.note).
type Decision struct{ Key, What string }

// Trace runs Simulate and also returns its decisions in order.
func Trace(cfg Config) (Stats, []Decision, error) {
	var ds []Decision
	st, err := simulateWith(cfg, func(key, what string) { ds = append(ds, Decision{key, what}) })
	return st, ds, err
}
