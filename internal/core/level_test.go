package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ccs/internal/constraint"
	"ccs/internal/counting"
	"ccs/internal/itemset"
	"ccs/internal/obs"
	"ccs/internal/testutil"
	"ccs/internal/tidlist"
)

// spaceAlgo names SolutionSpace beside the six answer-set algorithms of
// allAlgos; runWithSpace dispatches all seven.
const spaceAlgo = "space"

// runWithSpace is runAlgo extended to SolutionSpace, whose Lower border
// stands in for Answers and whose Upper border is returned separately.
func runWithSpace(t testing.TB, m *Miner, algo string, q *constraint.Conjunction) (res *Result, upper []itemset.Set) {
	t.Helper()
	if algo != spaceAlgo {
		return runAlgo(t, m, algo, q), nil
	}
	desc, err := m.SolutionSpace(q)
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	return &Result{Answers: desc.Lower, Stats: desc.Stats}, desc.Upper
}

// TestBackendsAgree mines every algorithm plus SolutionSpace with the
// counter pinned to each TID-list backend, serially and on the sharded
// engine, and checks every run against the brute-force reference and
// against the dense serial run: same answers, same Stats counters. The
// small databases cover many queries; on the large one some levels cost
// more than one shard budget (counting.MinShardCost), so the worker
// pipeline runs as well as the on-goroutine path.
func TestBackendsAgree(t *testing.T) {
	testutil.CheckGoroutines(t)
	queries := queryPool()
	algos := append(append([]string(nil), allAlgos...), spaceAlgo)
	cases := []struct {
		seed       int64
		items, txs int
		queryNames []string
	}{
		{1, 9, 300, []string{"empty", "maxLE", "sumGE", "mono-nonsucc", "disjoint"}},
		{2, 9, 300, []string{"empty", "maxLE", "sumGE", "mono-nonsucc", "disjoint"}},
		{3, 9, 300, []string{"empty", "maxLE", "sumGE", "mono-nonsucc", "disjoint"}},
		{1, 12, 20000, []string{"empty", "mono-nonsucc"}},
	}
	for _, c := range cases {
		db := corrDB(rand.New(rand.NewSource(c.seed)), c.items, c.txs)
		for _, qn := range c.queryNames {
			q := queries[qn]
			ref := newMiner(t, db)
			brute, err := ref.Brute(q, testParams().MaxLevel)
			if err != nil {
				t.Fatal(err)
			}
			var validSpace []itemset.Set
			for _, s := range brute.Space {
				if q.Satisfies(db.Catalog, s) {
					validSpace = append(validSpace, s)
				}
			}
			wantLower, wantUpper := bruteBorders(t, ref, q, testParams().MaxLevel)
			want := map[string][]itemset.Set{
				"bms":     brute.MinimalCorrelated,
				"bms+":    brute.ValidMin,
				"bms++":   brute.ValidMin,
				"bms*":    brute.MinValid,
				"bms**":   brute.MinValid,
				"all":     validSpace,
				spaceAlgo: wantLower,
			}
			for _, algo := range algos {
				t.Run(fmt.Sprintf("%dx%d/seed%d/%s/%s", c.items, c.txs, c.seed, qn, algo), func(t *testing.T) {
					var base *Result
					for _, be := range []tidlist.Backend{tidlist.BackendDense, tidlist.BackendCompressed} {
						for _, workers := range []int{1, 8} {
							m, err := New(db, testParams(), WithWorkers(workers),
								WithCounter(counting.NewBitmapCounterBackend(db, be)))
							if err != nil {
								t.Fatal(err)
							}
							got, upper := runWithSpace(t, m, algo, q)
							if !sameSets(got.Answers, want[algo]) {
								t.Errorf("%s workers=%d: answers %s, brute %s",
									be, workers, setsString(got.Answers), setsString(want[algo]))
							}
							if algo == spaceAlgo && !sameSets(upper, wantUpper) {
								t.Errorf("%s workers=%d: upper %s, brute %s",
									be, workers, setsString(upper), setsString(wantUpper))
							}
							if base == nil {
								base = got
								continue
							}
							if bs, gs := statsNoDurations(base.Stats), statsNoDurations(got.Stats); !reflect.DeepEqual(bs, gs) {
								t.Errorf("%s workers=%d: stats %+v, dense serial %+v", be, workers, gs, bs)
							}
						}
					}
				})
			}
		}
	}
}

// TestWorkersDeterminismSolutionSpace extends the determinism gate to
// SolutionSpace: both borders and every Stats counter are identical at
// Workers=1 and on the sharded engine.
func TestWorkersDeterminismSolutionSpace(t *testing.T) {
	testutil.CheckGoroutines(t)
	queries := queryPool()
	for seed := int64(1); seed <= 4; seed++ {
		db := wideDB(rand.New(rand.NewSource(seed)), 12, 300)
		for _, qn := range []string{"empty", "maxLE", "sumLE", "mixed", "disjoint", "mono-nonsucc"} {
			q := queries[qn]
			serial, err := New(db, testParams(), WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			want, wantUpper := runWithSpace(t, serial, spaceAlgo, q)
			for _, workers := range detWorkerCounts {
				par, err := New(db, testParams(), WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				got, gotUpper := runWithSpace(t, par, spaceAlgo, q)
				if !sameSets(want.Answers, got.Answers) || !sameSets(wantUpper, gotUpper) {
					t.Errorf("seed%d/%s workers=%d: borders differ from the serial run", seed, qn, workers)
				}
				if ws, gs := statsNoDurations(want.Stats), statsNoDurations(got.Stats); !reflect.DeepEqual(ws, gs) {
					t.Errorf("seed%d/%s workers=%d: stats %+v, serial %+v", seed, qn, workers, gs, ws)
				}
			}
		}
	}
}

// TestSolutionSpaceBudgetFails pins SolutionSpace's budget contract: a
// run that exhausts its Budget fails with an error wrapping
// ErrBudgetExceeded instead of returning a truncated description, because
// an upper border cut short would be unsound.
func TestSolutionSpaceBudgetFails(t *testing.T) {
	db := corrDB(rand.New(rand.NewSource(7)), 9, 300)
	q := queryPool()["maxLE"]
	for _, b := range []Budget{{MaxCandidates: 10}, {MaxCells: 200}} {
		for _, workers := range []int{1, 8} {
			m, err := New(db, testParams(), WithBudget(b), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			desc, err := m.SolutionSpace(q)
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Errorf("budget %+v workers=%d: err = %v, want ErrBudgetExceeded", b, workers, err)
			}
			if desc != nil {
				t.Errorf("budget %+v workers=%d: returned a description alongside the error", b, workers)
			}
		}
	}
}

// TestLevelRecordFeedsEverySurface checks that every per-level surface of
// a run reports the one level record: the progress events of counted
// levels carry exactly Stats.LevelDurations, and the profiler's level
// records repeat every event's phase, level, candidates, kept count, cell
// charge and window.
func TestLevelRecordFeedsEverySurface(t *testing.T) {
	db := wideDB(rand.New(rand.NewSource(3)), 12, 300)
	q := queryPool()["mono-nonsucc"]
	for _, algo := range append(append([]string(nil), allAlgos...), spaceAlgo) {
		for _, workers := range []int{1, 8} {
			var events []ProgressEvent
			prof := obs.NewProfile(algo)
			m, err := New(db, testParams(), WithWorkers(workers), WithProfile(prof),
				WithProgress(func(e ProgressEvent) { events = append(events, e) }))
			if err != nil {
				t.Fatal(err)
			}
			res, _ := runWithSpace(t, m, algo, q)
			rec := prof.Record()
			tag := fmt.Sprintf("%s workers=%d", algo, workers)

			var counted []ProgressEvent
			var cells int64
			for _, e := range events {
				if e.Algorithm != displayNames[algo] {
					t.Errorf("%s: level record labelled %q", tag, e.Algorithm)
				}
				if e.Phase != "chi" {
					counted = append(counted, e)
				}
				cells += e.Cells
			}
			if len(counted) != res.Stats.Levels || len(res.Stats.LevelDurations) != res.Stats.Levels {
				t.Fatalf("%s: %d counted records, %d durations, %d levels",
					tag, len(counted), len(res.Stats.LevelDurations), res.Stats.Levels)
			}
			for i, e := range counted {
				if e.Duration != res.Stats.LevelDurations[i] {
					t.Errorf("%s: level %d record %v, LevelDurations %v", tag, i, e.Duration, res.Stats.LevelDurations[i])
				}
			}
			if cells != res.Stats.CellsCounted {
				t.Errorf("%s: records charge %d cells, Stats.CellsCounted %d", tag, cells, res.Stats.CellsCounted)
			}
			if len(rec.Levels) != len(events) {
				t.Fatalf("%s: %d profile levels, %d records", tag, len(rec.Levels), len(events))
			}
			for i, e := range events {
				lv := rec.Levels[i]
				if lv.Phase != e.Phase || lv.Level != e.Level || lv.Candidates != e.Candidates ||
					lv.Kept != e.Kept || lv.Cells != e.Cells || lv.Seconds != e.Duration.Seconds() {
					t.Errorf("%s: profile level %+v disagrees with record %+v", tag, lv, e)
				}
			}
		}
	}
}
