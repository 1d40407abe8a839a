package pdes

import (
	"strings"
	"testing"
)

// TestProcsPingPongDeterministicAcrossConfigs stresses the crossing path:
// every rank ping-pongs with its mirror rank (cross-partition for almost all
// pairs), with per-round varying delays, and the per-rank accumulators must
// match the serial run exactly at every configuration. Run under -race this
// also exercises the worker/proc handoff discipline.
func TestProcsPingPongDeterministicAcrossConfigs(t *testing.T) {
	const n = 64
	const rounds = 15
	const look = 1e-6

	run := func(cfg Config) ([]float64, Result) {
		t.Helper()
		sums := make([]float64, n)
		cfg.Lookahead = look
		res, err := RunProcs(n, cfg, func(p *Proc) {
			partner := n - 1 - p.ID()
			acc := 0.0
			for i := 0; i < rounds; i++ {
				p.Send(partner, look*float64(1+i%3), float64(p.ID()*rounds+i))
				m := p.Recv()
				acc += m.Data + m.Time*1e6
				p.Advance(look / 3)
			}
			sums[p.ID()] = acc
		})
		if err != nil {
			t.Fatalf("parts=%d workers=%d: %v", cfg.Partitions, cfg.Workers, err)
		}
		return sums, res
	}

	base, bres := run(Config{Partitions: 1, Workers: 1})
	for _, cfg := range []Config{
		{Partitions: 2, Workers: 2},
		{Partitions: 4, Workers: 4},
		{Partitions: 8, Workers: 3},
		{Partitions: 64, Workers: 8},
	} {
		sums, res := run(cfg)
		if res.Events != bres.Events || res.VirtualTime != bres.VirtualTime {
			t.Errorf("parts=%d workers=%d: (%d events, t=%g), baseline (%d, t=%g)",
				cfg.Partitions, cfg.Workers, res.Events, res.VirtualTime, bres.Events, bres.VirtualTime)
		}
		for r := range sums {
			if sums[r] != base[r] {
				t.Fatalf("parts=%d workers=%d: rank %d sum %g, baseline %g", cfg.Partitions, cfg.Workers, r, sums[r], base[r])
			}
		}
	}
	if bres.Events == 0 {
		t.Fatal("ping-pong processed no events")
	}
}

// TestProcsResumeLadderFrontierAtBoundaries targets the ladder's
// binary-search run insertion behind the merge frontier: zero-delay
// Advance resumes schedule self events at exactly the popped time, which
// land behind the frontier mid-merge, while adjacent ranks ping-pong
// across partition boundaries so the resumes interleave with cross
// arrivals. Tiny bucket widths force constant respreads; the per-rank
// ledgers must still match the serial run at every partition count.
func TestProcsResumeLadderFrontierAtBoundaries(t *testing.T) {
	const n = 48
	const rounds = 12
	const look = 1e-6

	run := func(cfg Config, width float64) ([]float64, Result) {
		t.Helper()
		ledger := make([]float64, n)
		cfg.Lookahead = look
		res, err := runProcs(n, cfg, width, func(p *Proc) {
			// Neighbour pairing (0<->1, 2<->3, ...) keeps traffic on
			// partition boundaries whenever the partition size is odd.
			partner := p.ID() ^ 1
			acc := 0.0
			for i := 0; i < rounds; i++ {
				p.Send(partner, look*float64(1+i%2), float64(i))
				// A burst of zero-delay resumes: each lands at p.Now()
				// exactly, behind the ladder's merge frontier.
				for k := 0; k <= i%3; k++ {
					p.Advance(0)
					acc += p.Now() * 1e6
				}
				m := p.Recv()
				acc += m.Data*7 + m.Time*1e6
				p.Advance(look / 4)
			}
			ledger[p.ID()] = acc
		})
		if err != nil {
			t.Fatalf("parts=%d width=%g: %v", cfg.Partitions, width, err)
		}
		return ledger, res
	}

	base, bres := run(Config{Partitions: 1, Workers: 1}, look/4)
	if bres.Events == 0 {
		t.Fatal("frontier ping-pong processed no events")
	}
	for _, c := range []struct {
		cfg   Config
		width float64
	}{
		{Config{Partitions: 3, Workers: 1}, look / 128}, // odd size: pairs straddle boundaries
		{Config{Partitions: 5, Workers: 2}, look / 128},
		{Config{Partitions: 16, Workers: 4}, look / 16},
		{Config{Partitions: 48, Workers: 8}, look * 1e4}, // every pair cross, one giant bucket
	} {
		ledger, res := run(c.cfg, c.width)
		if res.Events != bres.Events || res.VirtualTime != bres.VirtualTime {
			t.Errorf("parts=%d width=%g: (%d events, t=%g), baseline (%d, t=%g)",
				c.cfg.Partitions, c.width, res.Events, res.VirtualTime, bres.Events, bres.VirtualTime)
		}
		for r := range ledger {
			if ledger[r] != base[r] {
				t.Fatalf("parts=%d width=%g: rank %d ledger %g, baseline %g",
					c.cfg.Partitions, c.width, r, ledger[r], base[r])
			}
		}
	}
}

// TestProcsMessageOrder: simultaneous arrivals deliver in (Time, Src, Seq)
// order no matter how the senders are partitioned.
func TestProcsMessageOrder(t *testing.T) {
	for _, parts := range []int{1, 3} {
		var first, second Msg
		_, err := RunProcs(3, Config{Partitions: parts, Lookahead: 1e-6}, func(p *Proc) {
			switch p.ID() {
			case 0, 2:
				p.Send(1, 1e-6, float64(10+p.ID()))
			case 1:
				first = p.Recv()
				second = p.Recv()
			}
		})
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		if first.From != 0 || second.From != 2 {
			t.Errorf("parts=%d: delivery order %d,%d, want 0,2", parts, first.From, second.From)
		}
		if first.Data != 10 || second.Data != 12 {
			t.Errorf("parts=%d: payloads %g,%g, want 10,12", parts, first.Data, second.Data)
		}
	}
}

func TestProcsDeadlockDetected(t *testing.T) {
	_, err := RunProcs(4, Config{Partitions: 2, Lookahead: 1e-6}, func(p *Proc) {
		if p.ID() == 0 {
			p.Recv() // nobody writes to rank 0
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("got %v, want a deadlock error", err)
	}
}

func TestProcsPanicPropagates(t *testing.T) {
	_, err := RunProcs(4, Config{Partitions: 2, Lookahead: 1e-6}, func(p *Proc) {
		if p.ID() == 2 {
			panic("boom")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "proc 2 panicked: boom") {
		t.Fatalf("got %v, want the proc panic", err)
	}
}

func TestProcsLookaheadViolation(t *testing.T) {
	const look = 1e-6
	_, err := RunProcs(2, Config{Partitions: 2, Lookahead: look}, func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, look/2, 1)
		} else {
			p.Recv()
		}
	})
	if err == nil || !strings.Contains(err.Error(), "lookahead violation") {
		t.Fatalf("got %v, want a lookahead violation", err)
	}
}

func TestProcsAdvanceAndPending(t *testing.T) {
	var pending int
	var now float64
	_, err := RunProcs(2, Config{Partitions: 1, Lookahead: 1e-6}, func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, 1e-6, 1)
			p.Send(1, 2e-6, 2)
			return
		}
		p.Advance(5e-6) // both messages land while rank 1 computes
		pending = p.Pending()
		now = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if pending != 2 {
		t.Errorf("pending = %d, want 2", pending)
	}
	if now != 5e-6 {
		t.Errorf("now = %g, want 5e-6", now)
	}
}
