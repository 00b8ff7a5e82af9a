package core

import (
	"context"

	"ccs/internal/constraint"
	"ccs/internal/contingency"
	"ccs/internal/itemset"
)

// minimalCorrelated runs Brin et al.'s level-wise search for minimal
// correlated, CT-supported sets: candidates whose every relevant subset is
// CT-supported but uncorrelated (NOTSIG) are counted; a candidate that is
// CT-supported and correlated is a minimal correlated set and is never
// expanded. With split nil this is the unconstrained baseline that BMS,
// BMS+ and BMS* share. With a split it is BMS++'s constraint pushing:
// succinct anti-monotone constraints restrict the item pool, non-succinct
// ones prune before counting, and monotone constraints filter the answers
// — with correlated-but-invalid sets still blocking their supersets, which
// preserves Definition 1 minimality. witness (BMS++ paper mode) pushes a
// single monotone succinct witness into candidate generation.
//
// Truncation discards the level in flight, so the answers are always a
// per-level prefix of the full run's.
func (m *Miner) minimalCorrelated(ctl *runCtl, stats *Stats, split *constraint.Split, witness constraint.ItemFilter) (answers []itemset.Set, cause, err error) {
	var allowed constraint.ItemFilter
	var pre func(itemset.Set) shardVerdict
	if split != nil {
		allowed = split.AMMGF().Allowed
		pre = m.amPre(split)
	}
	l1 := m.frequentItems(allowed)
	cands, relevant := m.firstPairs(ctl, l1, witness)
	notsig := itemset.NewRegistry()
	var answersLevel, notsigLevel []itemset.Set
	cause, err = m.levels(ctl, stats, levelLoop{
		phase: "levelwise",
		level: 2,
		cands: cands,
		pre:   pre,
		eval: func(s itemset.Set, t *contingency.Table) {
			if !t.CTSupported(m.res.s, m.res.CTFraction) {
				return
			}
			if !m.correlated(stats, t) {
				notsigLevel = append(notsigLevel, s)
			} else if split == nil || split.SatisfiesM(m.cat, s) {
				// Correlated sets never enter NOTSIG, so supersets stay
				// blocked even when the set fails a monotone constraint.
				answersLevel = append(answersLevel, s)
			}
		},
		commit: func(int) []itemset.Set {
			answers = append(answers, answersLevel...)
			for _, s := range notsigLevel {
				notsig.Add(s)
			}
			next := ctl.candgen(func() []itemset.Set { return extend(notsigLevel, l1, relevant, notsig) })
			answersLevel, notsigLevel = nil, nil
			return next
		},
	})
	itemset.SortSets(answers)
	return answers, cause, err
}

// BMS computes the unconstrained answer set of Brin et al.: all minimal
// correlated and CT-supported itemsets.
func (m *Miner) BMS() (*Result, error) {
	return m.BMSContext(context.Background())
}

// BMSContext is BMS honoring ctx and the Miner's Budget; see the Result
// fields Truncated and Cause for the partial-answer contract.
func (m *Miner) BMSContext(ctx context.Context) (*Result, error) {
	return m.run(ctx, "bms", func(ctl *runCtl, res *Result) (cause, err error) {
		res.Answers, cause, err = m.minimalCorrelated(ctl, &res.Stats, nil, nil)
		return cause, err
	})
}
