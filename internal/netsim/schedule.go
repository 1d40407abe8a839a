package netsim

// This file builds round-structured communication schedules for the
// contention experiments (T6): unlike the DES plane, which charges each
// message its uncongested LogGP cost, these schedules are evaluated with
// the Makespan bound, so algorithms that funnel traffic through few links
// pay for it. Each schedule is a sequence of rounds; messages within a
// round are concurrent, rounds are separated by a synchronisation.

import "math/bits"

// AlltoallOneShot returns the naive all-to-all personalised exchange: all
// p·(p−1) messages of the given size injected at once.
func AlltoallOneShot(p int, bytes float64) [][]Transfer {
	round := make([]Transfer, 0, p*(p-1))
	for s := 0; s < p; s++ {
		for d := 0; d < p; d++ {
			if s != d {
				round = append(round, Transfer{Src: s, Dst: d, Bytes: bytes})
			}
		}
	}
	return [][]Transfer{round}
}

// AlltoallPairwise returns the pairwise-exchange all-to-all: p−1 rounds; in
// round r, rank i exchanges with rank i XOR r when p is a power of two,
// else with (i+r) mod p. Each round is a perfect matching (for the XOR
// form), spreading load evenly over links.
func AlltoallPairwise(p int, bytes float64) [][]Transfer {
	rounds := make([][]Transfer, 0, p-1)
	pow2 := p&(p-1) == 0
	for r := 1; r < p; r++ {
		round := make([]Transfer, 0, p)
		for i := 0; i < p; i++ {
			var partner int
			if pow2 {
				partner = i ^ r
			} else {
				partner = (i + r) % p
			}
			if partner != i {
				round = append(round, Transfer{Src: i, Dst: partner, Bytes: bytes})
			}
		}
		rounds = append(rounds, round)
	}
	return rounds
}

// AllgatherRing returns the ring allgather: p−1 rounds in which every rank
// forwards one block to its right neighbour — only nearest-neighbour links
// are ever used, the topology-friendly schedule.
func AllgatherRing(p int, bytes float64) [][]Transfer {
	rounds := make([][]Transfer, 0, p-1)
	for r := 0; r < p-1; r++ {
		round := make([]Transfer, 0, p)
		for i := 0; i < p; i++ {
			round = append(round, Transfer{Src: i, Dst: (i + 1) % p, Bytes: bytes})
		}
		rounds = append(rounds, round)
	}
	return rounds
}

// BroadcastBinomialRounds returns the binomial broadcast as rounds: in
// round k, every rank that already has the data sends to the rank at
// distance 2^k.
func BroadcastBinomialRounds(p int, bytes float64) [][]Transfer {
	rounds := make([][]Transfer, 0, bits.Len(uint(p-1)))
	for dist := 1; dist < p; dist *= 2 {
		round := make([]Transfer, 0, dist)
		for src := 0; src < dist && src < p; src++ {
			dst := src + dist
			if dst < p {
				round = append(round, Transfer{Src: src, Dst: dst, Bytes: bytes})
			}
		}
		rounds = append(rounds, round)
	}
	return rounds
}

// ScheduleCost evaluates a round schedule on the model: the sum over
// rounds of each round's congested makespan, plus a per-round
// synchronisation charge of one zero-byte message latency.
func (m *Model) ScheduleCost(rounds [][]Transfer) float64 {
	total := 0.0
	syncCost := m.Spec.AlphaSec + 2*m.Spec.OverheadSec
	for _, r := range rounds {
		total += m.Makespan(r) + syncCost
	}
	return total
}
