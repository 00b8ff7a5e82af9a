package core

import (
	"math/rand"
	"testing"

	"ccs/internal/constraint"
)

func TestProgressEventsEmitted(t *testing.T) {
	db := corrDB(rand.New(rand.NewSource(3)), 7, 150)
	var events []ProgressEvent
	m, err := New(db, testParams(), WithProgress(func(e ProgressEvent) {
		events = append(events, e)
	}))
	if err != nil {
		t.Fatal(err)
	}
	q := constraint.And(constraint.NewAggregate(constraint.AggMin, constraint.Price, constraint.LE, 3))

	events = nil
	if _, err := m.BMS(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatalf("BMS emitted no progress")
	}
	if events[0].Algorithm != "BMS" || events[0].Phase != "levelwise" || events[0].Level != 2 {
		t.Fatalf("first event = %+v", events[0])
	}
	for i := 1; i < len(events); i++ {
		if events[i].Level != events[i-1].Level+1 {
			t.Fatalf("levels not consecutive: %+v", events)
		}
	}

	// The baseline levels of BMS+ and BMS* carry the run's own name.
	events = nil
	if _, err := m.BMSPlus(q); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatalf("BMS+ emitted no progress")
	}
	for _, e := range events {
		if e.Algorithm != "BMS+" {
			t.Fatalf("BMS+ level labelled %q: %+v", e.Algorithm, e)
		}
	}

	events = nil
	if _, err := m.BMSPlusPlus(q, PlusPlusOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0].Algorithm != "BMS++" {
		t.Fatalf("BMS++ events = %+v", events)
	}

	events = nil
	if _, err := m.BMSStar(q); err != nil {
		t.Fatal(err)
	}
	sawSweep := false
	for _, e := range events {
		if e.Algorithm != "BMS*" {
			t.Fatalf("BMS* level labelled %q: %+v", e.Algorithm, e)
		}
		if e.Phase == "sweep" {
			sawSweep = true
		}
	}
	if !sawSweep {
		t.Fatalf("BMS* emitted no sweep events: %+v", events)
	}

	events = nil
	if _, err := m.BMSStarStar(q, StarStarOptions{}); err != nil {
		t.Fatal(err)
	}
	phases := map[string]bool{}
	for _, e := range events {
		phases[e.Phase] = true
	}
	if !phases["supp"] || !phases["chi"] {
		t.Fatalf("BMS** phases = %v", phases)
	}
}

// TestProgressUnderParallelWorkers is the regression gate for -progress
// output with the sharded level engine: events must arrive exactly once
// per level, in monotone level order within each phase, regardless of how
// many workers count the level's shards. The engine guarantees this by
// keeping report() on the mining goroutine, before any shard is
// dispatched.
func TestProgressUnderParallelWorkers(t *testing.T) {
	db := corrDB(rand.New(rand.NewSource(5)), 12, 300)
	q := constraint.And(constraint.NewAggregate(constraint.AggMax, constraint.Price, constraint.LE, 5))
	for _, algo := range []string{"bms", "bms++", "bms*", "bms**", "all"} {
		t.Run(algo, func(t *testing.T) {
			var events []ProgressEvent
			m, err := New(db, testParams(), WithWorkers(8), WithProgress(func(e ProgressEvent) {
				events = append(events, e)
			}))
			if err != nil {
				t.Fatal(err)
			}
			switch algo {
			case "bms":
				_, err = m.BMS()
			case "bms++":
				_, err = m.BMSPlusPlus(q, PlusPlusOptions{})
			case "bms*":
				_, err = m.BMSStar(q)
			case "bms**":
				_, err = m.BMSStarStar(q, StarStarOptions{})
			case "all":
				_, err = m.AllValid(q)
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(events) == 0 {
				t.Fatal("no progress events")
			}
			seen := map[string]map[int]bool{} // phase -> levels reported
			lastLevel := map[string]int{}
			for _, e := range events {
				if seen[e.Phase] == nil {
					seen[e.Phase] = map[int]bool{}
				}
				if seen[e.Phase][e.Level] {
					t.Fatalf("level %d of phase %q reported twice: %+v", e.Level, e.Phase, events)
				}
				seen[e.Phase][e.Level] = true
				if last, ok := lastLevel[e.Phase]; ok && e.Level <= last {
					t.Fatalf("phase %q levels not monotone: %d after %d", e.Phase, e.Level, last)
				}
				lastLevel[e.Phase] = e.Level
			}
		})
	}
}

func TestNoProgressObserverIsSilent(t *testing.T) {
	db := corrDB(rand.New(rand.NewSource(3)), 6, 100)
	m, err := New(db, testParams())
	if err != nil {
		t.Fatal(err)
	}
	// must not panic without an observer
	if _, err := m.BMS(); err != nil {
		t.Fatal(err)
	}
}
