// Package fault generates fault-injection schedules for training runs:
// fixed-interval faults (Fig. 14a uses one every 2k iterations), explicit
// fault lists (Fig. 5 uses one mid-training fault), and Poisson arrivals
// with rate λ per iteration (the failure model of §6.2.5, Eq. 11).
package fault

import (
	"sort"

	"moc/internal/rng"
)

// Plan is a set of iterations after which a fault strikes.
type Plan struct {
	at    map[int]bool
	order []int
}

func newPlan(iters []int) *Plan {
	p := &Plan{at: make(map[int]bool, len(iters))}
	for _, it := range iters {
		if it > 0 && !p.at[it] {
			p.at[it] = true
			p.order = append(p.order, it)
		}
	}
	sort.Ints(p.order)
	return p
}

// None returns an empty schedule.
func None() *Plan { return newPlan(nil) }

// At schedules faults after exactly the given iterations.
func At(iters ...int) *Plan { return newPlan(iters) }

// Every schedules a fault after each multiple of interval up to and
// including total (exclusive of iteration total itself when it is the last
// training step, faults there would be inconsequential but harmless).
func Every(interval, total int) *Plan {
	var iters []int
	if interval > 0 {
		for it := interval; it < total; it += interval {
			iters = append(iters, it)
		}
	}
	return newPlan(iters)
}

// Midpoint schedules the single mid-training fault used by the Fig. 5
// correlation study.
func Midpoint(total int) *Plan { return At(total / 2) }

// Poisson draws fault arrivals with the given per-iteration rate over a
// horizon of total iterations, deterministically from the seed.
func Poisson(rate float64, total int, seed uint64) *Plan {
	if rate <= 0 || total <= 0 {
		return None()
	}
	r := rng.New(seed)
	var iters []int
	t := 0.0
	for {
		t += r.Exp(rate)
		it := int(t) + 1
		if it >= total {
			break
		}
		iters = append(iters, it)
	}
	return newPlan(iters)
}

// IsFault reports whether a fault strikes after the given iteration.
func (p *Plan) IsFault(iteration int) bool { return p.at[iteration] }

// Count returns the number of scheduled faults.
func (p *Plan) Count() int { return len(p.order) }

// Iterations returns the fault iterations in ascending order.
func (p *Plan) Iterations() []int { return append([]int(nil), p.order...) }
