package mem

// NUMA support: when enabled (and the machine spec declares more than one
// domain), every DRAM access is classified local or remote according to
// the accessing core's domain and the line's home domain, with remote
// accesses paying the spec's extra latency; ChargeEnergy bills remote
// bytes at the higher pJ/byte. Two placement policies model the classic
// software choice: page interleaving (half the traffic remote, always) and
// first-touch (whoever touches a page first owns it — local if the
// initialisation matches the compute partition, pathological if rank 0
// initialises everything).

// Placement selects how lines are homed to NUMA domains.
type Placement int

const (
	// PlacementInterleave homes pages round-robin across domains.
	PlacementInterleave Placement = iota
	// PlacementFirstTouch homes a page in the domain of the first core
	// that touches it.
	PlacementFirstTouch
)

// numaPageBytes is the homing granularity (a 4 KiB page).
const numaPageBytes = 4096

// EnableNUMA activates NUMA accounting with the given placement policy.
// It is a no-op if the machine spec declares a uniform memory (<= 1
// domain).
func (h *Hierarchy) EnableNUMA(p Placement) {
	if h.spec.NUMA.Uniform() {
		return
	}
	h.numaOn = true
	h.placement = p
	if h.firstTouch == nil {
		h.firstTouch = make(map[uint64]int)
	}
}

// coreDomain maps a core to its NUMA domain (cores split evenly).
func (h *Hierarchy) coreDomain(core int) int {
	d := h.spec.NUMA.Domains
	perDomain := (h.cores + d - 1) / d
	return core / perDomain
}

// firstTouchHome returns (and, on the page's first fetch, records) the
// domain owning page under first-touch: the domain of the core whose
// demand fetch reached it first.
func (h *Hierarchy) firstTouchHome(core int, page uint64) int {
	if d, ok := h.firstTouch[page]; ok {
		return d
	}
	d := h.coreDomain(core)
	h.firstTouch[page] = d
	return d
}

// numaDRAMPenalty classifies one demand DRAM line fetch and returns the
// extra latency cycles beyond the local cost (0 when local or NUMA is
// off). A placement only labels fetches, it never changes what the caches
// hold, so the fetch is also classified under the placement not in force:
// one simulation of a trace yields RemoteLines for both.
func (h *Hierarchy) numaDRAMPenalty(core int, lineAddr uint64) float64 {
	if !h.numaOn {
		return 0
	}
	page := lineAddr * h.line / numaPageBytes
	dom := h.coreDomain(core)
	ftRemote := h.firstTouchHome(core, page) != dom
	ilRemote := int(page%uint64(h.spec.NUMA.Domains)) != dom
	if ftRemote {
		h.remoteFirstTouch++
	}
	if ilRemote {
		h.remoteInterleave++
	}
	remote := ilRemote
	if h.placement == PlacementFirstTouch {
		remote = ftRemote
	}
	if !remote {
		h.stats.LocalDRAMBytes += int64(h.line)
		return 0
	}
	h.stats.RemoteDRAMBytes += int64(h.line)
	return h.spec.DRAM.LatencyCycles * (h.spec.NUMA.RemoteLatencyFactor - 1)
}

// RemoteLines returns the demand DRAM line fetches since the last
// ResetStats (or since EnableNUMA) whose page placement p homes in a
// domain other than the fetching core's, whichever placement EnableNUMA
// put in force; for that one it is RemoteDRAMBytes divided by the line
// size. It is 0 when NUMA accounting is off.
func (h *Hierarchy) RemoteLines(p Placement) int64 {
	if p == PlacementFirstTouch {
		return h.remoteFirstTouch
	}
	return h.remoteInterleave
}
