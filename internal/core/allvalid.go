package core

import (
	"context"

	"ccs/internal/constraint"
	"ccs/internal/contingency"
	"ccs/internal/itemset"
)

// AllValid computes every itemset that is correlated, CT-supported and
// valid — with no minimality filtering. This is the sound answer set for
// constraints that are neither anti-monotone nor monotone (the paper's
// future-work case, e.g. avg(S.price) <= c): their solution space "may
// have holes in it", so returning only minimal elements is meaningless,
// but the full set is still well-defined.
//
// The search runs level-wise over the CT-supported space, which does not
// depend on the constraints at all; only anti-monotone constraints (which
// are downward-safe) prune, and every surviving set is tested exactly.
// Constraints with no classification cost one evaluation per CT-supported
// correlated set — the price of their irregular geometry.
func (m *Miner) AllValid(q *constraint.Conjunction) (*Result, error) {
	return m.AllValidContext(context.Background(), q)
}

// AllValidContext is AllValid honoring ctx and the Miner's Budget; on
// truncation the valid sets of the completed levels are returned with
// Result.Truncated set.
func (m *Miner) AllValidContext(ctx context.Context, q *constraint.Conjunction) (*Result, error) {
	split, err := q.Classify()
	if err != nil {
		return nil, err
	}
	return m.run(ctx, "all", func(ctl *runCtl, res *Result) (cause, err error) {
		stats := &res.Stats
		l1 := m.frequentItems(split.AMMGF().Allowed)
		supp := itemset.NewRegistry()
		var suppLevel, answersLevel []itemset.Set
		cause, err = m.levels(ctl, stats, levelLoop{
			phase: "levelwise",
			level: 2,
			cands: ctl.candgen(func() []itemset.Set { return pairs(l1, nil) }),
			pre:   m.amPre(split),
			eval: func(s itemset.Set, t *contingency.Table) {
				if !t.CTSupported(m.res.s, m.res.CTFraction) {
					return
				}
				suppLevel = append(suppLevel, s)
				if !m.correlated(stats, t) {
					return
				}
				// exact validity: monotone and unclassified constraints are
				// evaluated directly on every correlated set
				if split.SatisfiesM(m.cat, s) && satisfiesOther(split, m, s) {
					answersLevel = append(answersLevel, s)
				}
			},
			commit: func(int) []itemset.Set {
				for _, s := range suppLevel {
					supp.Add(s)
				}
				res.Answers = append(res.Answers, answersLevel...)
				next := ctl.candgen(func() []itemset.Set { return extend(suppLevel, l1, nil, supp) })
				suppLevel, answersLevel = nil, nil
				return next
			},
		})
		itemset.SortSets(res.Answers)
		return cause, err
	})
}

func satisfiesOther(split *constraint.Split, m *Miner, s itemset.Set) bool {
	for _, c := range split.Other {
		if !c.Satisfies(m.cat, s) {
			return false
		}
	}
	return true
}
