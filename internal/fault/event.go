package fault

import (
	"fmt"
	"sort"
)

// This file extends the instantaneous fault Plans with duration-carrying
// events: a Plan says "a fault strikes after iteration N", an Event says
// "condition K holds from iteration Start until iteration End". Timed
// events are what elastic-fleet chaos scenarios are made of — a spot
// preemption wave that lasts until capacity returns, a backend that is
// slow (not dead) for a window, a partition that heals.

// Kind classifies a timed fault event.
type Kind int

// Event kinds.
const (
	// Preempt is a spot-instance preemption: the target job's writer
	// dies at Start (its lease stops renewing) and replacement capacity
	// arrives at End (the job can be re-adopted).
	Preempt Kind = iota
	// Straggle degrades the target backend — slow, not dead: multiplied
	// latency and throttled bandwidth for the window.
	Straggle
	// Partition cuts the target backend off from the writer's side of
	// the network for the window. The backend keeps its state and heals
	// at End, leaving divergence for anti-entropy to repair.
	Partition
	// BackendDown takes the target backend down outright for the window
	// (every operation fails until End).
	BackendDown
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Preempt:
		return "preempt"
	case Straggle:
		return "straggle"
	case Partition:
		return "partition"
	case BackendDown:
		return "backend-down"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one timed fault: the condition Kind holds for the target
// over iterations Start <= it < End. Target indexes the victim — a job
// for Preempt, a backend/replica otherwise.
type Event struct {
	Kind   Kind
	Start  int
	End    int
	Target int
}

func (e Event) String() string {
	return fmt.Sprintf("%s(target=%d)[%d,%d)", e.Kind, e.Target, e.Start, e.End)
}

// validate rejects malformed events (empty or inverted windows,
// negative targets or starts).
func (e Event) validate() error {
	if e.Start < 0 {
		return fmt.Errorf("fault: event %s: negative start", e)
	}
	if e.End <= e.Start {
		return fmt.Errorf("fault: event %s: empty window (End must exceed Start)", e)
	}
	if e.Target < 0 {
		return fmt.Errorf("fault: event %s: negative target", e)
	}
	switch e.Kind {
	case Preempt, Straggle, Partition, BackendDown:
	default:
		return fmt.Errorf("fault: event %s: unknown kind", e)
	}
	return nil
}

// Schedule is an ordered set of timed events — the duration-carrying
// counterpart of Plan. The zero value is an empty schedule.
type Schedule struct {
	events []Event
}

// NewSchedule validates the events and returns them as a schedule,
// ordered by (Start, End, Kind, Target). Duplicate events collapse to
// one.
func NewSchedule(events ...Event) (Schedule, error) {
	out := make([]Event, 0, len(events))
	seen := make(map[Event]bool, len(events))
	for _, e := range events {
		if err := e.validate(); err != nil {
			return Schedule{}, err
		}
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	sortEvents(out)
	return Schedule{events: out}, nil
}

func sortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Target < b.Target
	})
}

// Events returns the schedule's events in order.
func (s Schedule) Events() []Event { return append([]Event(nil), s.events...) }

// ActiveAt returns the events whose window covers the iteration
// (Start <= it < End), in schedule order.
func (s Schedule) ActiveAt(it int) []Event {
	var out []Event
	for _, e := range s.events {
		if e.Start <= it && it < e.End {
			out = append(out, e)
		}
	}
	return out
}

// Starting returns the events that begin exactly at the iteration.
func (s Schedule) Starting(it int) []Event {
	var out []Event
	for _, e := range s.events {
		if e.Start == it {
			out = append(out, e)
		}
	}
	return out
}

// Ending returns the events that end exactly at the iteration (their
// condition no longer holds from it on).
func (s Schedule) Ending(it int) []Event {
	var out []Event
	for _, e := range s.events {
		if e.End == it {
			out = append(out, e)
		}
	}
	return out
}

// Horizon returns the first iteration at which no event is or will be
// active (the max End; 0 for an empty schedule).
func (s Schedule) Horizon() int {
	h := 0
	for _, e := range s.events {
		if e.End > h {
			h = e.End
		}
	}
	return h
}
