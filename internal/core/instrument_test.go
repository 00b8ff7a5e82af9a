package core

import (
	"math/rand"
	"testing"

	"ccs/internal/constraint"
	"ccs/internal/obs"
)

// TestLevelDurationsMatchLevels checks the instrumentation invariant on
// every algorithm: one LevelDurations entry per Stats.Levels increment.
func TestLevelDurationsMatchLevels(t *testing.T) {
	db := corrDB(rand.New(rand.NewSource(7)), 8, 400)
	m := newMiner(t, db)
	q := constraint.And(constraint.NewAggregate(constraint.AggMax, constraint.Price, constraint.LE, 6))

	runs := map[string]func() (*Result, error){
		"BMS":      m.BMS,
		"BMS+":     func() (*Result, error) { return m.BMSPlus(q) },
		"BMS++":    func() (*Result, error) { return m.BMSPlusPlus(q, PlusPlusOptions{}) },
		"BMS*":     func() (*Result, error) { return m.BMSStar(q) },
		"BMS**":    func() (*Result, error) { return m.BMSStarStar(q, StarStarOptions{}) },
		"AllValid": func() (*Result, error) { return m.AllValid(q) },
		"SolutionSpace": func() (*Result, error) {
			desc, err := m.SolutionSpace(q)
			if err != nil {
				return nil, err
			}
			return &Result{Answers: desc.Lower, Stats: desc.Stats}, nil
		},
	}
	for name, run := range runs {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Stats.Levels == 0 {
			t.Errorf("%s: no levels visited; test database too small", name)
		}
		if got, want := len(res.Stats.LevelDurations), res.Stats.Levels; got != want {
			t.Errorf("%s: %d level durations for %d levels", name, got, want)
		}
		for i, d := range res.Stats.LevelDurations {
			if d < 0 {
				t.Errorf("%s: level %d has negative duration %v", name, i, d)
			}
		}
	}
}

// TestMiningMetrics checks a run moves the package counters: started,
// completed, levels, candidates and cells all advance by the run's stats.
func TestMiningMetrics(t *testing.T) {
	db := corrDB(rand.New(rand.NewSource(11)), 8, 400)
	m := newMiner(t, db)

	reg := obs.Default()
	started := reg.CounterVec(MetricMinesTotal, "", "algo").With("bms")
	completed := reg.CounterVec(MetricMinesCompletedTotal, "", "algo").With("bms")
	levels := reg.CounterVec(MetricLevelsTotal, "", "algo").With("bms")
	cands := reg.CounterVec(MetricCandidatesTotal, "", "algo").With("bms")
	cells := reg.CounterVec(MetricCellsCountedTotal, "", "algo").With("bms")

	s0, c0, l0, n0, e0 := started.Value(), completed.Value(), levels.Value(), cands.Value(), cells.Value()
	res, err := m.BMS()
	if err != nil {
		t.Fatal(err)
	}
	if started.Value() != s0+1 || completed.Value() != c0+1 {
		t.Errorf("started/completed = %d/%d, want %d/%d", started.Value(), completed.Value(), s0+1, c0+1)
	}
	if got, want := levels.Value()-l0, int64(res.Stats.Levels); got != want {
		t.Errorf("levels counter advanced %d, want %d", got, want)
	}
	if got, want := cands.Value()-n0, int64(res.Stats.Candidates); got != want {
		t.Errorf("candidates counter advanced %d, want %d", got, want)
	}
	if cells.Value() == e0 {
		t.Error("cells counter did not advance")
	}
}

// TestMiningMetricsTruncated checks a budget-truncated run lands in the
// truncated counter, not the completed one.
func TestMiningMetricsTruncated(t *testing.T) {
	db := corrDB(rand.New(rand.NewSource(13)), 8, 400)
	m, err := New(db, testParams(), WithBudget(Budget{MaxCandidates: 1}))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.Default()
	truncated := reg.CounterVec(MetricMinesTruncatedTotal, "", "algo").With("bms")
	completed := reg.CounterVec(MetricMinesCompletedTotal, "", "algo").With("bms")
	t0, c0 := truncated.Value(), completed.Value()
	res, err := m.BMS()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("run with MaxCandidates=1 did not truncate")
	}
	if truncated.Value() != t0+1 || completed.Value() != c0 {
		t.Errorf("truncated/completed advanced to %d/%d, want %d/%d",
			truncated.Value(), completed.Value(), t0+1, c0)
	}
}
