package core

import (
	"context"
	"fmt"

	"ccs/internal/constraint"
)

// BMSPlus computes VALIDMIN(Q) naively: run the unconstrained baseline and
// keep the minimal correlated sets that satisfy the query. Because the
// constraints are applied only as a final filter, BMSPlus handles any
// constraint — including ones that are neither anti-monotone nor monotone.
func (m *Miner) BMSPlus(q *constraint.Conjunction) (*Result, error) {
	return m.BMSPlusContext(context.Background(), q)
}

// BMSPlusContext is BMSPlus honoring ctx and the Miner's Budget; on
// truncation the filtered answers of the completed levels are returned
// with Result.Truncated set.
func (m *Miner) BMSPlusContext(ctx context.Context, q *constraint.Conjunction) (*Result, error) {
	return m.run(ctx, "bms+", func(ctl *runCtl, res *Result) (cause, err error) {
		sig, cause, err := m.minimalCorrelated(ctl, &res.Stats, nil, nil)
		for _, s := range sig {
			if q.Satisfies(m.cat, s) {
				res.Answers = append(res.Answers, s)
			}
		}
		return cause, err
	})
}

// PlusPlusOptions configures BMSPlusPlus.
type PlusPlusOptions struct {
	// PushMonotoneSuccinct enables the paper's Modification I/II exactly as
	// printed: single-witness monotone succinct constraints are pushed into
	// candidate generation via the L1+/L1- split. This changes the answer
	// semantics from Definition 1 to Definition 2 whenever an invalid
	// subset is correlated (see DESIGN.md): with the push enabled the
	// algorithm returns MINVALID(Q) rather than VALIDMIN(Q). The default
	// (false) computes VALIDMIN(Q) exactly, pushing only anti-monotone
	// constraints and checking monotone constraints on output.
	PushMonotoneSuccinct bool
}

// BMSPlusPlus computes valid minimal answers with constraint pushing:
// succinct anti-monotone constraints restrict the item pool and candidate
// space, non-succinct anti-monotone constraints are checked before a
// contingency table is built, and monotone constraints filter the output
// (with correlated-but-invalid sets still blocking their supersets, which
// preserves Definition 1 minimality).
func (m *Miner) BMSPlusPlus(q *constraint.Conjunction, opts PlusPlusOptions) (*Result, error) {
	return m.BMSPlusPlusContext(context.Background(), q, opts)
}

// BMSPlusPlusContext is BMSPlusPlus honoring ctx and the Miner's Budget;
// cancellation is observed at level and batch boundaries and the level in
// flight is discarded, so the partial answers are those of the completed
// levels.
func (m *Miner) BMSPlusPlusContext(ctx context.Context, q *constraint.Conjunction, opts PlusPlusOptions) (*Result, error) {
	split, err := q.Classify()
	if err != nil {
		return nil, err
	}
	if split.HasUnclassified() {
		return nil, fmt.Errorf("core: BMS++ requires anti-monotone or monotone constraints; %d constraint(s) are neither", len(split.Other))
	}
	return m.run(ctx, "bms++", func(ctl *runCtl, res *Result) (cause, err error) {
		res.Answers, cause, err = m.minimalCorrelated(ctl, &res.Stats, split, pushedWitness(split, opts.PushMonotoneSuccinct))
		return cause, err
	})
}

// pushedWitness returns the witness filter the paper's Modification I
// pushes into candidate generation when push is set. Only a single
// combined witness filter can be pushed into L1+ (footnote 5); with zero
// or several witness filters, every monotone succinct constraint is
// enforced on output and pushedWitness returns nil.
func pushedWitness(split *constraint.Split, push bool) constraint.ItemFilter {
	if !push {
		return nil
	}
	if ws := split.MMGF().Witnesses; len(ws) == 1 {
		return ws[0]
	}
	return nil
}
