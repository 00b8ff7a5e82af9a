package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ccs/internal/obs"
)

// ErrBudgetExceeded is the truncation cause when a run exhausts its Budget.
// Causes carried on Result.Cause wrap it together with the limit that
// tripped, so errors.Is(cause, ErrBudgetExceeded) distinguishes budget
// exhaustion from caller-driven cancellation.
var ErrBudgetExceeded = errors.New("core: budget exceeded")

// Budget bounds the resources one mining run may consume. A zero field is
// unlimited; the zero Budget imposes no limits at all. Limits are enforced
// at level/batch granularity: when one trips, the run stops counting,
// discards the level in flight, and returns the answers of the completed
// levels with Result.Truncated set — it does not fail. The one exception
// is SolutionSpace, which fails with an error wrapping ErrBudgetExceeded:
// its upper border is only known once the sweep ends, so a truncated
// description would be unsound.
type Budget struct {
	// MaxWall caps the wall-clock time of the run. It is enforced through a
	// derived context deadline, so a counter that honors cancellation stops
	// mid-batch.
	MaxWall time.Duration
	// MaxCandidates caps the number of candidate sets generated across all
	// levels (Stats.Candidates).
	MaxCandidates int
	// MaxCells caps the number of contingency-table cells counted: each
	// k-set charges 2^k cells when its batch is issued.
	MaxCells int64
}

// WithBudget installs per-run resource limits on the Miner. The limits
// apply to every subsequent run, Context variant or not.
func WithBudget(b Budget) Option {
	return func(cfg *minerConfig) { cfg.budget = b }
}

// runCtl carries one run's cancellation and budget state. The level
// loop (Miner.levels) consults it at level boundaries (interrupted) and
// the level engine charges it per level (runLevel); the first cause
// observed is sticky.
type runCtl struct {
	ctx          context.Context
	budget       Budget
	wallDeadline time.Time // non-zero only when budget.MaxWall is set
	cells        int64     // contingency cells charged so far
	cause        error

	// algo is the run's metric label ("bms+"); name is the display name
	// its level records carry ("BMS+").
	algo, name string
	// prof is the run's profiler; nil means profiling is off and every
	// collection point reduces to one pointer-nil branch.
	prof *obs.Profile
	// scratch holds the level engine's reusable per-level buffers. A
	// runCtl belongs to exactly one run, so reuse across its levels needs
	// no synchronization beyond the engine's own barriers.
	scratch levelScratch
}

// displayNames maps each run's metric label to the algorithm name its
// level records carry.
var displayNames = map[string]string{
	"bms":   "BMS",
	"bms+":  "BMS+",
	"bms++": "BMS++",
	"bms*":  "BMS*",
	"bms**": "BMS**",
	"all":   "AllValid",
	"space": "SolutionSpace",
}

// newCtl records the start of one run labelled algo and binds ctx and the
// miner's budget into a fresh control block. release must be called when
// the run ends (it drops the MaxWall timer).
func (m *Miner) newCtl(ctx context.Context, algo string) (ctl *runCtl, release context.CancelFunc) {
	startMine(algo)
	ctl = &runCtl{ctx: ctx, budget: m.budget, algo: algo, name: displayNames[algo], prof: m.prof}
	m.prof.SetWorkers(m.effectiveWorkers())
	release = func() {}
	if m.budget.MaxWall > 0 {
		ctl.wallDeadline = time.Now().Add(m.budget.MaxWall)
		ctl.ctx, release = context.WithDeadline(ctx, ctl.wallDeadline)
	}
	return ctl, release
}

// run executes body as one run labelled algo. body fills res.Answers and
// res.Stats and returns the truncation cause (nil when the run completed)
// or a genuine failure. A cause marks the result Truncated; a failure
// returns no result and records nothing beyond the run's start.
func (m *Miner) run(ctx context.Context, algo string, body func(ctl *runCtl, res *Result) (cause, err error)) (*Result, error) {
	ctl, release := m.newCtl(ctx, algo)
	defer release()
	res := &Result{}
	cause, err := body(ctl, res)
	if err != nil {
		return nil, err
	}
	if cause != nil {
		res.Truncated, res.Cause = true, cause
	}
	recordMine(res, ctl)
	return res, nil
}

// interrupted reports the run's truncation cause, or nil to keep going.
func (c *runCtl) interrupted(stats *Stats) error {
	if c.cause != nil {
		return c.cause
	}
	if err := c.ctx.Err(); err != nil {
		c.cause = c.classify(err)
		return c.cause
	}
	if c.budget.MaxCandidates > 0 && stats.Candidates > c.budget.MaxCandidates {
		c.cause = fmt.Errorf("%w: %d candidates generated (limit %d)",
			ErrBudgetExceeded, stats.Candidates, c.budget.MaxCandidates)
		return c.cause
	}
	if c.budget.MaxCells > 0 && c.cells > c.budget.MaxCells {
		c.cause = fmt.Errorf("%w: %d contingency cells counted (limit %d)",
			ErrBudgetExceeded, c.cells, c.budget.MaxCells)
		return c.cause
	}
	return nil
}

// classify attributes a context error to the budget when the run's own
// wall-clock deadline (not an earlier caller deadline) is what fired.
func (c *runCtl) classify(err error) error {
	if errors.Is(err, context.DeadlineExceeded) &&
		!c.wallDeadline.IsZero() && !time.Now().Before(c.wallDeadline) {
		return fmt.Errorf("%w: wall clock limit %v: %v", ErrBudgetExceeded, c.budget.MaxWall, err)
	}
	return err
}

// truncation classifies an error bubbling out of a counting batch: a
// non-nil result is the truncation cause (stop, keep completed levels),
// nil means a genuine failure the caller must return.
func (c *runCtl) truncation(err error) error {
	if err == nil {
		return nil
	}
	if c.cause != nil {
		return c.cause
	}
	if errors.Is(err, ErrBudgetExceeded) {
		c.cause = err
		return c.cause
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		c.cause = c.classify(err)
		return c.cause
	}
	return nil
}
