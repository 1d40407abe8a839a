package waste

import (
	"fmt"

	"tenways/internal/kernels"
	"tenways/internal/machine"
	"tenways/internal/pgas"
	"tenways/internal/report"
)

// HaloExchange simulates `steps` sweeps of a 1-D block-decomposed Jacobi
// grid on p ranks, exchanging `words` float64s with each neighbour per
// step, and returns the modeled makespan, energy, and wire bytes. It is
// shared by RunW2 (words = full block vs boundary row) and figure F2.
func HaloExchange(spec *machine.Spec, p, gridN, steps, words int) (Result, int64, error) {
	w := pgas.NewWorld(p, spec, nil, nil)
	hm := kernels.HaloModel{N: gridN, P: p}
	makespan, err := w.Run(func(r *pgas.Rank) {
		id := r.ID()
		for s := 0; s < steps; s++ {
			expect := int64(0)
			if id > 0 {
				r.Transfer(id-1, words, "halo")
				expect++
			}
			if id < p-1 {
				r.Transfer(id+1, words, "halo")
				expect++
			}
			r.WaitSignal("halo", int64(s)*expect+expect)
			r.Compute(hm.StepFlopsPerRank(), hm.StepBytesPerRank())
		}
	})
	if err != nil {
		return Result{}, 0, err
	}
	bytes := w.Stats().BytesSent
	return Result{
		Seconds: makespan,
		Joules:  w.Meter().Total(),
		Detail:  fmt.Sprintf("%s on the wire", report.FormatBytes(float64(bytes))),
	}, bytes, nil
}

// RunW2 contrasts re-fetching the neighbour's whole block every step with
// exchanging only the boundary row.
func RunW2(spec *machine.Spec) (Outcome, error) {
	const (
		p     = 16
		gridN = 1024
		steps = 20
	)
	hm := kernels.HaloModel{N: gridN, P: p}
	wasteful, _, err := HaloExchange(spec, p, gridN, steps, hm.WastefulWords()/2)
	if err != nil {
		return Outcome{}, err
	}
	remedied, _, err := HaloExchange(spec, p, gridN, steps, hm.HaloWords()/2)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Wasteful: wasteful, Remedied: remedied}, nil
}

// OverlapExchange simulates `steps` rounds in which each of p ranks sends
// `words` float64s around a ring and computes for computeFlops flops. With
// overlap=false the send blocks before computing; with overlap=true the
// send is split-phase and computation hides the transfer. Shared by RunW6
// and figure F6.
func OverlapExchange(spec *machine.Spec, p, steps, words int, computeFlops float64, overlap bool) (Result, error) {
	w := pgas.NewWorld(p, spec, nil, nil)
	makespan, err := w.Run(func(r *pgas.Rank) {
		right := (r.ID() + 1) % p
		for s := 0; s < steps; s++ {
			h := r.Transfer(right, words, "ring")
			if overlap {
				r.Compute(computeFlops, 0)
				h.Wait()
			} else {
				h.Wait()
				r.Compute(computeFlops, 0)
			}
			r.WaitSignal("ring", int64(s+1))
		}
	})
	if err != nil {
		return Result{}, err
	}
	style := "blocking"
	if overlap {
		style = "split-phase"
	}
	return Result{
		Seconds: makespan,
		Joules:  w.Meter().Total(),
		Detail:  fmt.Sprintf("%s, %d msgs", style, w.Stats().Messages),
	}, nil
}

// RunW6 contrasts blocking exchange-then-compute with overlapped
// split-phase exchange, sized so communication and computation are
// comparable (the regime where overlap pays most).
func RunW6(spec *machine.Spec) (Outcome, error) {
	const (
		p     = 16
		steps = 50
	)
	words := 4096
	msgTime := spec.MsgTimeSec(float64(8 * words))
	computeFlops := msgTime * spec.PeakFlopsPerCore() // compute ≈ comm
	wasteful, err := OverlapExchange(spec, p, steps, words, computeFlops, false)
	if err != nil {
		return Outcome{}, err
	}
	remedied, err := OverlapExchange(spec, p, steps, words, computeFlops, true)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Wasteful: wasteful, Remedied: remedied}, nil
}

// BulkTransfer moves `words` float64s from rank 0 to rank 1 in messages of
// msgWords each (pipelined split-phase issues), returning the modeled
// completion. Shared by RunW7 and figure F7.
func BulkTransfer(spec *machine.Spec, words, msgWords int) (Result, error) {
	w := pgas.NewWorld(2, spec, nil, nil)
	makespan, err := w.Run(func(r *pgas.Rank) {
		if r.ID() != 0 {
			nMsgs := (words + msgWords - 1) / msgWords
			r.WaitSignal("bulk", int64(nMsgs))
			return
		}
		var last *pgas.Handle
		for off := 0; off < words; off += msgWords {
			n := msgWords
			if off+n > words {
				n = words - off
			}
			last = r.Transfer(1, n, "bulk")
		}
		last.Wait()
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Seconds: makespan,
		Joules:  w.Meter().Total(),
		Detail:  fmt.Sprintf("%d messages", w.Stats().Messages),
	}, nil
}

// RunW7 contrasts one-word messages with a single aggregated transfer.
func RunW7(spec *machine.Spec) (Outcome, error) {
	const words = 8192
	wasteful, err := BulkTransfer(spec, words, 1)
	if err != nil {
		return Outcome{}, err
	}
	remedied, err := BulkTransfer(spec, words, words)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Wasteful: wasteful, Remedied: remedied}, nil
}
