package core

import (
	"context"
	"fmt"

	"ccs/internal/constraint"
	"ccs/internal/contingency"
	"ccs/internal/itemset"
)

// BMSStar computes MINVALID(Q) naively (the paper's Figure F): run the
// unconstrained baseline, keep the valid minimal correlated sets, and grow
// the correlated-but-monotone-invalid ones upward level by level. The
// upward sweep re-checks CT-support and the anti-monotone constraints but
// skips the chi-squared test: a superset of a correlated set is correlated
// (upward closure of the statistic under table collapse).
func (m *Miner) BMSStar(q *constraint.Conjunction) (*Result, error) {
	return m.BMSStarContext(context.Background(), q)
}

// BMSStarContext is BMSStar honoring ctx and the Miner's Budget. On
// truncation — in the baseline or in the upward sweep — the answers found
// so far are returned with Result.Truncated set; every one of them is a
// genuine member of MINVALID(Q).
func (m *Miner) BMSStarContext(ctx context.Context, q *constraint.Conjunction) (*Result, error) {
	split, err := q.Classify()
	if err != nil {
		return nil, err
	}
	if split.HasUnclassified() {
		return nil, fmt.Errorf("core: BMS* requires anti-monotone or monotone constraints; %d constraint(s) are neither", len(split.Other))
	}
	return m.run(ctx, "bms*", func(ctl *runCtl, res *Result) (cause, err error) {
		sig, cause, err := m.minimalCorrelated(ctl, &res.Stats, nil, nil)
		if err != nil {
			return nil, err
		}
		answers := itemset.NewRegistry()
		// Seeds for the upward sweep: minimal correlated sets that satisfy
		// the anti-monotone constraints but fail a monotone one. Sets
		// failing an anti-monotone constraint are discarded outright — no
		// superset can be valid.
		var seeds []itemset.Set
		for _, s := range sig {
			if !split.SatisfiesAM(m.cat, s) {
				continue
			}
			if split.SatisfiesM(m.cat, s) {
				answers.Add(s)
			} else {
				seeds = append(seeds, s)
			}
		}
		if cause == nil {
			cause, err = m.sweepUp(ctl, &res.Stats, split, seeds, answers)
		}
		res.Answers = answers.Sets()
		return cause, err
	})
}

// sweepUp grows the seed sets (correlated, CT-supported, AM-valid, not yet
// M-valid) upward one item at a time, adding each minimal valid superset to
// answers. A non-nil cause means the sweep was truncated at a level
// boundary. Invariants maintained per level:
//
//   - every examined set is a superset of a correlated set, hence
//     correlated; only CT-support and constraints are re-checked;
//   - a set containing an already-found answer cannot be minimal valid and
//     is dropped together with its supersets;
//   - a set failing an anti-monotone constraint is dropped likewise.
//
// Seeds of different sizes join the sweep when it reaches their level, so
// the sweep continues through an empty frontier while larger seeds are
// still pending.
func (m *Miner) sweepUp(ctl *runCtl, stats *Stats, split *constraint.Split, seeds []itemset.Set, answers *itemset.Registry) (cause, err error) {
	if len(seeds) == 0 {
		return nil, nil
	}
	pool := m.frequentItems(split.AMMGF().Allowed)
	// group seeds by level so the sweep proceeds smallest-first
	byLevel := map[int][]itemset.Set{}
	minSeed, maxSeed := seeds[0].Size(), 0
	for _, s := range seeds {
		byLevel[s.Size()] = append(byLevel[s.Size()], s)
		minSeed = min(minSeed, s.Size())
		maxSeed = max(maxSeed, s.Size())
	}

	frontier := itemset.NewRegistry() // NOTSIG of the sweep: in-space, AM-valid, M-invalid
	var frontierLevel []itemset.Set
	for _, s := range byLevel[minSeed] {
		frontier.Add(s)
		frontierLevel = append(frontierLevel, s)
	}
	frontierSize := minSeed
	// next generates the candidates of the given size, none past MaxLevel.
	next := func(size int) []itemset.Set {
		if size > m.res.maxLevel {
			return nil
		}
		return ctl.candgen(func() []itemset.Set { return extendAny(frontierLevel, pool) })
	}
	var answersLevel, frontierNew []itemset.Set
	return m.levels(ctl, stats, levelLoop{
		phase: "sweep",
		level: minSeed + 1,
		cands: next(minSeed + 1),
		// drop candidates that fail AM constraints or contain an answer
		// (answers is read-only until the level commits, so the check is
		// safe to run concurrently)
		pre: func(c itemset.Set) shardVerdict {
			if answers.ContainsSubsetOf(c) {
				return dropSet
			}
			if !split.SatisfiesAMOther(m.cat, c) {
				return dropSetAM
			}
			return keepSet
		},
		eval: func(s itemset.Set, t *contingency.Table) {
			if !t.CTSupported(m.res.s, m.res.CTFraction) {
				return
			}
			if split.SatisfiesM(m.cat, s) {
				answersLevel = append(answersLevel, s)
			} else {
				frontierNew = append(frontierNew, s)
			}
		},
		commit: func(level int) []itemset.Set {
			for _, s := range answersLevel {
				answers.Add(s)
			}
			frontierLevel = frontierLevel[:0]
			for _, s := range frontierNew {
				if frontier.Add(s) {
					frontierLevel = append(frontierLevel, s)
				}
			}
			// new seeds arriving at this level join the frontier directly
			// (they are already known correlated and CT-supported)
			for _, s := range byLevel[level] {
				if !answers.ContainsSubsetOf(s) && frontier.Add(s) {
					frontierLevel = append(frontierLevel, s)
				}
			}
			frontierSize = level
			answersLevel, frontierNew = nil, nil
			return next(level + 1)
		},
		more: func() bool { return len(frontierLevel) > 0 || frontierSize < maxSeed },
	})
}

// extendAny returns the deduplicated one-item extensions of the bases — the
// upward sweep has no Apriori prune because its frontier is not
// subset-closed. The output is pre-sized to the worst case (every pool item
// extends every base) and base membership is tested against a bitmask over
// item IDs instead of a per-item binary search.
func extendAny(bases []itemset.Set, pool []itemset.Item) []itemset.Set {
	if len(bases) == 0 || len(pool) == 0 {
		return nil
	}
	maxID := pool[len(pool)-1] // pool is ascending (frequentItems)
	for _, b := range bases {
		if last := b[len(b)-1]; last > maxID {
			maxID = last
		}
	}
	inBase := make([]uint64, int(maxID)/64+1)
	seen := itemset.NewRegistry()
	out := make([]itemset.Set, 0, len(bases)*len(pool))
	for _, b := range bases {
		for _, x := range b {
			inBase[x>>6] |= 1 << (x & 63)
		}
		for _, x := range pool {
			if inBase[x>>6]&(1<<(x&63)) != 0 {
				continue
			}
			c := b.With(x)
			if seen.Add(c) {
				out = append(out, c)
			}
		}
		for _, x := range b {
			inBase[x>>6] &^= 1 << (x & 63)
		}
	}
	itemset.SortSets(out)
	return out
}

// StarStarOptions configures BMSStarStar.
type StarStarOptions struct {
	// PushMonotoneSuccinct enables the L1+/L1- witness split of the
	// paper's Modification I for the single-witness case, pruning
	// unwitnessed candidates in phase 1. The answer set (MINVALID) is
	// unchanged; only the explored space shrinks.
	PushMonotoneSuccinct bool
}

// BMSStarStar computes MINVALID(Q) with the paper's two-phase strategy
// (Figure G): phase 1 grows the CT-supported, AM-valid candidate space to
// exhaustion without any chi-squared test; phase 2 sweeps the stored levels
// bottom-up applying the chi-squared test and monotone constraints, keeping
// the minimal valid sets. Its cost tracks the size of the valid supported
// space (Σ v_i in the paper's analysis), which is why it wins under
// selective constraints and loses badly under unselective ones.
func (m *Miner) BMSStarStar(q *constraint.Conjunction, opts StarStarOptions) (*Result, error) {
	return m.BMSStarStarContext(context.Background(), q, opts)
}

// BMSStarStarContext is BMSStarStar honoring ctx and the Miner's Budget.
// Truncation in phase 1 cuts the stored SUPP levels (phase 2 then sweeps
// what exists); truncation in phase 2 stops the sweep at a level boundary.
// Either way the partial answers are genuine MINVALID members from the
// completed levels.
func (m *Miner) BMSStarStarContext(ctx context.Context, q *constraint.Conjunction, opts StarStarOptions) (*Result, error) {
	split, err := q.Classify()
	if err != nil {
		return nil, err
	}
	if split.HasUnclassified() {
		return nil, fmt.Errorf("core: BMS** requires anti-monotone or monotone constraints; %d constraint(s) are neither", len(split.Other))
	}

	return m.run(ctx, "bms**", func(ctl *runCtl, res *Result) (cause, err error) {
		stats := &res.Stats
		l1 := m.frequentItems(split.AMMGF().Allowed)
		cands, relevant := m.firstPairs(ctl, l1, pushedWitness(split, opts.PushMonotoneSuccinct))

		// Phase 1: SUPP levels — CT-supported and AM-valid, no chi-squared
		// test. The statistic is computed while the table is hot but only
		// entered into the SUPP store once the level commits.
		type suppLevel struct {
			sets []itemset.Set
			chis []float64
		}
		var levels []suppLevel
		var cur suppLevel
		supp := itemset.NewRegistry()
		cause, err = m.levels(ctl, stats, levelLoop{
			phase: "supp",
			level: 2,
			cands: cands,
			pre:   m.amPre(split),
			eval: func(s itemset.Set, t *contingency.Table) {
				if !t.CTSupported(m.res.s, m.res.CTFraction) {
					return
				}
				cur.sets = append(cur.sets, s)
				cur.chis = append(cur.chis, t.ChiSquared())
			},
			commit: func(int) []itemset.Set {
				for _, s := range cur.sets {
					supp.Add(s)
				}
				levels = append(levels, cur)
				next := ctl.candgen(func() []itemset.Set { return extend(cur.sets, l1, relevant, supp) })
				cur = suppLevel{}
				return next
			},
		})
		if err != nil {
			return nil, err
		}

		// Phase 2: bottom-up chi-squared + monotone sweep over the SUPP
		// levels. NOTSIG holds supported sets that are not yet answers; a
		// set is examined only if its relevant subsets are all in NOTSIG.
		// Phase 2 never recounts, so its levels record as pure evaluation.
		notsig := itemset.NewRegistry()
		for li, lv := range levels {
			if cause == nil {
				if cause = ctl.interrupted(stats); cause != nil {
					break
				}
			}
			m.evalLevel(ctl, "chi", li+2, len(lv.sets), func() {
				for i, s := range lv.sets {
					if li > 0 && !allSubsetsIn(s, relevant, notsig) { // level-2 sets are always examined
						continue
					}
					stats.ChiSquaredTests++
					if lv.chis[i] >= m.res.cutoff && split.SatisfiesM(m.cat, s) {
						res.Answers = append(res.Answers, s)
					} else {
						notsig.Add(s)
					}
				}
			})
		}
		itemset.SortSets(res.Answers)
		return cause, nil
	})
}

// allSubsetsIn reports whether every (|s|-1)-subset of s with relevant
// true (nil = every subset) is in reg.
func allSubsetsIn(s itemset.Set, relevant func(itemset.Set) bool, reg *itemset.Registry) bool {
	ok := true
	s.Subsets1(func(sub itemset.Set) bool {
		if relevant != nil && !relevant(sub) {
			return true
		}
		if !reg.Has(sub) {
			ok = false
			return false
		}
		return true
	})
	return ok
}
