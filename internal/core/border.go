package core

import (
	"context"
	"fmt"

	"ccs/internal/constraint"
	"ccs/internal/contingency"
	"ccs/internal/itemset"
)

// SpaceDescription characterizes the full solution space of a constrained
// correlation query by its two borders, answering the observation of the
// paper's Section 5 that "simply returning minimal answers does not
// completely cover all answers, unless we also know where the upper border
// is": an itemset S is a solution iff Lower has a subset of S and Upper has
// a superset of S.
type SpaceDescription struct {
	// Lower is MINVALID(Q): the minimal solutions.
	Lower []itemset.Set
	// Upper is the maximal solutions: valid, correlated, CT-supported sets
	// none of whose valid CT-supported supersets remain in the space.
	Upper []itemset.Set
	// Stats records the work performed.
	Stats Stats
}

// Contains reports whether s lies in the described space.
func (d *SpaceDescription) Contains(s itemset.Set) bool {
	lower := false
	for _, l := range d.Lower {
		if s.ContainsAll(l) {
			lower = true
			break
		}
	}
	if !lower {
		return false
	}
	for _, u := range d.Upper {
		if u.ContainsAll(s) {
			return true
		}
	}
	return false
}

// SolutionSpace computes both borders of the query's solution space
// {S : S correlated, CT-supported, valid}. Each constraint must be
// anti-monotone or monotone, as for MINVALID: only then is the space a
// single region delimited from below by correlation and the monotone
// constraints and from above by CT-support and the anti-monotone
// constraints (Figure C of the paper).
//
// Strategy: a level-wise sweep collects every set that is CT-supported and
// AM-valid (the upper-closed predicates are inherited from subsets and
// checked directly); within that space the solutions are the sets that are
// also correlated and M-valid. The minimal ones form Lower; the sets with
// no solution superset at the next level form Upper.
//
// SolutionSpace runs on the level engine like the other algorithms (it
// honors WithWorkers, WithProfile and WithProgress) but has no partial
// result: the upper border is only known once the sweep ends, so a
// truncated description would be unsound. When the Miner's Budget runs out
// it fails with an error wrapping ErrBudgetExceeded instead.
func (m *Miner) SolutionSpace(q *constraint.Conjunction) (*SpaceDescription, error) {
	split, err := q.Classify()
	if err != nil {
		return nil, err
	}
	if split.HasUnclassified() {
		return nil, fmt.Errorf("core: SolutionSpace requires anti-monotone or monotone constraints; %d constraint(s) are neither", len(split.Other))
	}

	desc := &SpaceDescription{}
	res, err := m.run(context.Background(), "space", func(ctl *runCtl, res *Result) (cause, err error) {
		stats := &res.Stats
		l1 := m.frequentItems(split.AMMGF().Allowed)
		supp := itemset.NewRegistry()      // CT-supported ∧ AM-valid, feeds candidate generation
		solutions := itemset.NewRegistry() // also correlated ∧ M-valid
		var prevSolutions []itemset.Set    // solutions at the previous level
		var suppLevel, solLevel []itemset.Set
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
				if m.correlated(stats, t) && split.SatisfiesM(m.cat, s) {
					solLevel = append(solLevel, s)
				}
			},
			commit: func(int) []itemset.Set {
				for _, s := range suppLevel {
					supp.Add(s)
				}
				covered := map[string]bool{}
				for _, s := range solLevel {
					// minimality: any solution subset disqualifies (solutions
					// still holds earlier levels only, and no set of this
					// level is a proper subset of another)
					minimal := true
					s.ProperSubsets(func(sub itemset.Set) bool {
						if solutions.Has(sub) {
							minimal = false
							return false
						}
						return true
					})
					if minimal {
						desc.Lower = append(desc.Lower, s)
					}
					// mark the previous level's subsets as covered (non-maximal)
					s.Subsets1(func(sub itemset.Set) bool {
						if solutions.Has(sub) {
							covered[sub.Key()] = true
						}
						return true
					})
				}
				// previous-level solutions not covered by a solution at this
				// level are maximal (the space is convex along chains, so a
				// solution superset implies a direct one)
				for _, s := range prevSolutions {
					if !covered[s.Key()] {
						desc.Upper = append(desc.Upper, s)
					}
				}
				for _, s := range solLevel {
					solutions.Add(s)
				}
				prevSolutions = solLevel
				next := ctl.candgen(func() []itemset.Set { return extend(suppLevel, l1, nil, supp) })
				suppLevel, solLevel = nil, nil
				return next
			},
		})
		// the final level's solutions are maximal by termination
		desc.Upper = append(desc.Upper, prevSolutions...)
		return cause, err
	})
	if err != nil {
		return nil, err
	}
	if res.Truncated {
		return nil, res.Cause
	}
	desc.Stats = res.Stats
	itemset.SortSets(desc.Lower)
	itemset.SortSets(desc.Upper)
	return desc, nil
}
