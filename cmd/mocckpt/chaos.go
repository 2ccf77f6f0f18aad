package main

// The chaos subcommand validates a timed fault scenario and prints its
// replay timeline — the dry run an operator reviews before pointing the
// same schedule at a live harness (moc.NewChaos; chaos_e2e_test.go
// drives such scenarios against a fleet). It needs no checkpoint
// directory: the scenario is the input.
//
//	mocckpt chaos -preempt 100:30:3 -straggle 1:40:80 -partition 2:50:70
//
// Windows are half-open [start,end) in training iterations. The same
// window flags accept comma-separated lists; duplicate events collapse,
// exactly as moc.NewChaos replays them.

import (
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"moc"
)

// triple parses "a:b:c" into three integers.
func triple(s string) ([3]int, error) {
	var out [3]int
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return out, fmt.Errorf("%q: want three colon-separated integers", s)
	}
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil {
			return out, fmt.Errorf("%q: %v", s, err)
		}
		out[i] = n
	}
	return out, nil
}

// parseWindows parses "target:start:end[,target:start:end...]" into
// events of the given kind.
func parseWindows(kind moc.ChaosKind, spec string) ([]moc.ChaosEvent, error) {
	if spec == "" {
		return nil, nil
	}
	var out []moc.ChaosEvent
	for _, w := range strings.Split(spec, ",") {
		t, err := triple(w)
		if err != nil {
			return nil, fmt.Errorf("window %v", err)
		}
		out = append(out, moc.ChaosEvent{Kind: kind, Target: t[0], Start: t[1], End: t[2]})
	}
	return out, nil
}

func runChaos(c *cli) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	preempt := fs.String("preempt", "", "preemption wave as at:dur:n — jobs 0..n-1 preempted at iteration `at`, capacity back after dur")
	straggle := fs.String("straggle", "", "straggler windows target:start:end[,...] — backend slow, not dead")
	partition := fs.String("partition", "", "partition windows target:start:end[,...] — replica cut off, heals with state")
	down := fs.String("down", "", "outage windows target:start:end[,...] — backend down outright")
	if err := fs.Parse(c.args); err != nil {
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usageError{fmt.Errorf("chaos: unexpected arguments %v", fs.Args())}
	}

	var events []moc.ChaosEvent
	if *preempt != "" {
		t, err := triple(*preempt)
		if err != nil || t[2] < 1 {
			return usageError{fmt.Errorf("chaos: -preempt %q: want at:dur:n with n >= 1", *preempt)}
		}
		targets := make([]int, t[2])
		for i := range targets {
			targets[i] = i
		}
		events = append(events, moc.PreemptionWaveEvents(t[0], t[1], targets...)...)
	}
	for _, spec := range []struct {
		kind moc.ChaosKind
		arg  string
	}{
		{moc.ChaosStraggle, *straggle},
		{moc.ChaosPartition, *partition},
		{moc.ChaosBackendDown, *down},
	} {
		evs, err := parseWindows(spec.kind, spec.arg)
		if err != nil {
			return usageError{fmt.Errorf("chaos: %w", err)}
		}
		events = append(events, evs...)
	}
	if len(events) == 0 {
		return usageError{errors.New("chaos: empty scenario (give -preempt, -straggle, -partition, or -down)")}
	}

	chaos, err := moc.NewChaos(moc.ChaosConfig{Events: events})
	if err != nil {
		return usageError{fmt.Errorf("chaos: %w", err)}
	}
	ordered := chaos.Events()
	fmt.Fprintf(c.out, "scenario: %d events, horizon %d iterations\n\n", len(ordered), chaos.Horizon())
	for _, line := range moc.ChaosTimeline(ordered) {
		fmt.Fprintln(c.out, line)
	}
	// Peak concurrency tells the operator how degraded the worst
	// iteration is — every window active at once is a very different
	// run from the same windows in sequence.
	peakIt, peak := 0, 0
	for it := 0; it < chaos.Horizon(); it++ {
		if n := len(chaos.ActiveAt(it)); n > peak {
			peakIt, peak = it, n
		}
	}
	fmt.Fprintf(c.out, "\npeak: %d concurrent faults at iteration %d\n", peak, peakIt)
	return nil
}
