package fault

import "testing"

func TestEventValidation(t *testing.T) {
	cases := []Event{
		{Kind: Straggle, Start: -1, End: 5, Target: 0},
		{Kind: Straggle, Start: 5, End: 5, Target: 0},
		{Kind: Straggle, Start: 5, End: 3, Target: 0},
		{Kind: Straggle, Start: 1, End: 5, Target: -1},
		{Kind: Kind(99), Start: 1, End: 5, Target: 0},
	}
	for _, e := range cases {
		if _, err := NewSchedule(e); err == nil {
			t.Errorf("NewSchedule(%v) accepted a malformed event", e)
		}
	}
	if _, err := NewSchedule(Event{Kind: BackendDown, Start: 0, End: 1, Target: 0}); err != nil {
		t.Fatalf("minimal valid event rejected: %v", err)
	}
}

func TestScheduleOrderingAndDedup(t *testing.T) {
	e1 := Event{Kind: Straggle, Start: 10, End: 20, Target: 1}
	e2 := Event{Kind: Partition, Start: 5, End: 8, Target: 0}
	s, err := NewSchedule(e1, e2, e1) // duplicate e1 collapses
	if err != nil {
		t.Fatal(err)
	}
	got := s.Events()
	if len(got) != 2 || got[0] != e2 || got[1] != e1 {
		t.Fatalf("events %v, want [%v %v]", got, e2, e1)
	}
}

func TestScheduleWindows(t *testing.T) {
	s, err := NewSchedule(Event{Kind: Straggle, Start: 10, End: 20, Target: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.ActiveAt(9)); n != 0 {
		t.Fatalf("active before start: %d", n)
	}
	if n := len(s.ActiveAt(10)); n != 1 {
		t.Fatalf("not active at start: %d", n)
	}
	if n := len(s.ActiveAt(19)); n != 1 {
		t.Fatalf("not active at End-1: %d", n)
	}
	if n := len(s.ActiveAt(20)); n != 0 {
		t.Fatalf("still active at End: %d", n)
	}
	if ev := s.Starting(10); len(ev) != 1 || ev[0].Target != 2 {
		t.Fatalf("Starting(10) = %v", ev)
	}
	if ev := s.Ending(20); len(ev) != 1 {
		t.Fatalf("Ending(20) = %v", ev)
	}
	if h := s.Horizon(); h != 20 {
		t.Fatalf("Horizon %d", h)
	}
	if h := (Schedule{}).Horizon(); h != 0 {
		t.Fatalf("empty Horizon %d", h)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Preempt: "preempt", Straggle: "straggle",
		Partition: "partition", BackendDown: "backend-down",
	} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}
