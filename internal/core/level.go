package core

import (
	"time"

	"ccs/internal/constraint"
	"ccs/internal/contingency"
	"ccs/internal/itemset"
	"ccs/internal/obs"
)

// This file is the level loop: the one implementation of the level-wise
// protocol every algorithm runs (DESIGN.md §10) and the one level record
// every per-level surface reads (DESIGN.md §13). An algorithm describes
// its loop — first candidates, pre-check, evaluation, commit — and
// Miner.levels owns everything else: the truncation check at each level
// boundary, the level window, counting through the level engine
// (runLevel), candidate accounting, and the record.
//
// The level record is a ProgressEvent, emitted exactly once per level when
// the level ends (committed or truncated). Its window opens after the
// level-boundary truncation check and closes after the commit step, which
// includes generating the next level's candidates. Stats.Levels and
// Stats.LevelDurations, the ccs_mine_levels_total metric, the profiler's
// level records and the progress observer (and through it the server's
// trace spans and ccsmine -progress) all consume that one record, so they
// report the same window for every level.

// levelLoop is one level-wise loop as an algorithm describes it to
// Miner.levels.
type levelLoop struct {
	// phase labels the loop's levels in the level record ("levelwise",
	// "supp", "sweep").
	phase string
	// level is the itemset size of the first level; cands are its
	// candidates in canonical order (itemset.SortSets), which
	// Miner.levels charges to Stats.Candidates.
	level int
	cands []itemset.Set
	// pre screens a candidate before counting; nil keeps every candidate.
	// It must be a pure function of the candidate: it runs concurrently,
	// and its verdicts must not depend on evaluation order.
	pre func(itemset.Set) shardVerdict
	// eval consumes one counted candidate. Calls arrive strictly in
	// canonical batch order on the mining goroutine, but a level in flight
	// can still be discarded by truncation, so eval writes only
	// level-local state that commit applies.
	eval func(s itemset.Set, t *contingency.Table)
	// commit applies a completed level's buffered effects and returns the
	// next level's candidates in canonical order. Every candidate
	// generator (pairs, extend, extendAny) sorts its output: the prefix
	// cache and the shard planner rely on sibling sets arriving adjacent.
	commit func(level int) []itemset.Set
	// more reports whether the loop goes on to the next level; nil means
	// while that level has candidates.
	more func() bool
}

// levelRec is one level's record while the level is in flight.
type levelRec struct {
	ev     ProgressEvent
	cells0 int64          // the run's cell charge when the level opened
	prof   *obs.LevelProf // nil when profiling is off
}

// levels runs loop until it runs out of levels, reaches Params.MaxLevel,
// or is truncated. A non-nil cause is the truncation cause: the level in
// flight was discarded and every earlier level committed. A non-nil err is
// a genuine failure the caller must return.
func (m *Miner) levels(ctl *runCtl, stats *Stats, loop levelLoop) (cause, err error) {
	cands := loop.cands
	stats.Candidates += len(cands)
	more := loop.more
	if more == nil {
		more = func() bool { return len(cands) > 0 }
	}
	for level := loop.level; level <= m.res.maxLevel && more(); level++ {
		if cause := ctl.interrupted(stats); cause != nil {
			return cause, nil
		}
		lv := ctl.openLevel(loop.phase, level, len(cands))
		if err := m.runLevel(ctl, stats, &lv, cands, &loop); err != nil {
			cause := ctl.truncation(err)
			if cause == nil {
				return nil, err
			}
			m.closeLevel(ctl, stats, &lv)
			return cause, nil
		}
		cands = loop.commit(level)
		stats.Candidates += len(cands)
		m.closeLevel(ctl, stats, &lv)
	}
	return nil, nil
}

// evalLevel runs fn as one level that evaluates already-counted tables
// (BMS** phase 2). It is recorded, reported and profiled like any level
// but is not a lattice visit, so it leaves Stats.Levels alone; its n
// stored sets are both its candidates and its kept sets.
func (m *Miner) evalLevel(ctl *runCtl, phase string, level, n int, fn func()) {
	lv := ctl.openLevel(phase, level, n)
	if lv.prof != nil {
		t0 := time.Now()
		fn()
		observePart(lv.prof, obs.PhaseEval, time.Since(t0), 0)
	} else {
		fn()
	}
	lv.ev.Kept = n
	m.closeLevel(ctl, nil, &lv)
}

// openLevel starts one level's record and, when profiling, its profiler
// level.
func (c *runCtl) openLevel(phase string, level, cands int) levelRec {
	return levelRec{
		ev: ProgressEvent{
			Algorithm:  c.name,
			Phase:      phase,
			Level:      level,
			Candidates: cands,
			Start:      time.Now(),
		},
		cells0: c.cells,
		prof:   c.prof.StartLevel(phase, level, cands),
	}
}

// closeLevel ends a level's window and hands the finished record to every
// consumer. stats is nil for levels that are not lattice visits
// (evalLevel); the others count in Stats.Levels, Stats.LevelDurations and
// the levels metric.
func (m *Miner) closeLevel(ctl *runCtl, stats *Stats, lv *levelRec) {
	ev := lv.ev
	ev.Duration = time.Since(ev.Start)
	ev.Cells = ctl.cells - lv.cells0
	if stats != nil {
		stats.Levels++
		stats.LevelDurations = append(stats.LevelDurations, ev.Duration)
		minedLevels.With(ctl.algo).Inc()
	}
	lv.prof.Finish(ev.Kept, ev.Cells, ev.Duration)
	if m.progress != nil {
		m.progress(ev)
	}
}

// amPre is the pre-check shared by the constrained loops: a candidate
// failing a non-succinct anti-monotone constraint is invalid and so is
// every superset, so it is dropped before counting.
func (m *Miner) amPre(split *constraint.Split) func(itemset.Set) shardVerdict {
	return func(c itemset.Set) shardVerdict {
		if split.SatisfiesAMOther(m.cat, c) {
			return keepSet
		}
		return dropSetAM
	}
}

// firstPairs generates the level-2 candidates over l1. With a witness
// filter (the paper's Modification I, single-witness case) it splits l1
// into L1+ (witnessing items) and L1- and returns the CAND_2 pairs plus
// the relevant filter that exempts unwitnessed subsets from the Apriori
// prune; otherwise all pairs and a nil filter.
func (m *Miner) firstPairs(ctl *runCtl, l1 []itemset.Item, witness constraint.ItemFilter) ([]itemset.Set, func(itemset.Set) bool) {
	if witness == nil {
		return ctl.candgen(func() []itemset.Set { return pairs(l1, nil) }), nil
	}
	var plus, minus []itemset.Item
	inPlus := make(map[itemset.Item]bool)
	for _, i := range l1 {
		if witness(m.cat.Info(i)) {
			plus = append(plus, i)
			inPlus[i] = true
		} else {
			minus = append(minus, i)
		}
	}
	relevant := func(s itemset.Set) bool {
		for _, i := range s {
			if inPlus[i] {
				return true
			}
		}
		return false
	}
	return ctl.candgen(func() []itemset.Set { return pairs(plus, minus) }), relevant
}
