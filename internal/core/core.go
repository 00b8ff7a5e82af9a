// Package core implements the paper's constrained correlation-mining
// algorithms: the Brin-Motwani-Silverstein baseline (BMS) for minimal
// correlated and CT-supported sets, BMS+ and BMS++ for valid minimal
// answers (Definition 1), BMS* and BMS** for minimal valid answers
// (Definition 2), and a brute-force reference (Brute) used to validate all
// of them.
//
// Answer-set semantics (with Q the query's constraint conjunction):
//
//	VALIDMIN(Q) = minimal correlated & CT-supported sets that satisfy Q
//	MINVALID(Q) = minimal elements of {S : S correlated, CT-supported, valid}
//
// VALIDMIN ⊆ MINVALID always; the two coincide when every constraint is
// anti-monotone (Theorem 1).
package core

import (
	"fmt"
	"time"

	"ccs/internal/chisq"
	"ccs/internal/constraint"
	"ccs/internal/contingency"
	"ccs/internal/counting"
	"ccs/internal/dataset"
	"ccs/internal/itemset"
	"ccs/internal/obs"
)

// Params carries the statistical thresholds of a correlation query.
type Params struct {
	// Alpha is the chi-squared significance level (e.g. 0.95): a set is
	// correlated when its statistic reaches the df=1 critical value at
	// Alpha, following the paper's convention of one degree of freedom for
	// boolean variables.
	Alpha float64
	// CellSupport is the absolute cell-support threshold s. If zero,
	// CellSupportFrac is used instead.
	CellSupport int
	// CellSupportFrac expresses s as a fraction of the transaction count.
	CellSupportFrac float64
	// CTFraction is p: the fraction of contingency-table cells that must
	// have count >= s for the set to be CT-supported.
	CTFraction float64
	// MaxLevel caps the itemset size explored (safety bound). Zero means
	// the default of 12.
	MaxLevel int
}

// DefaultParams mirrors the paper's experimental settings: significance
// level 0.9 for the chi-squared tests and 25% thresholds for support and
// CT-support.
func DefaultParams() Params {
	return Params{Alpha: 0.9, CellSupportFrac: 0.25, CTFraction: 0.25}
}

const defaultMaxLevel = 12

// resolved is a validated Params bound to a database size.
type resolved struct {
	Params
	s        int     // cell support threshold in absolute transactions
	cutoff   float64 // chi-squared critical value at Alpha, df=1
	maxLevel int
}

func (p Params) resolve(numTx int) (resolved, error) {
	r := resolved{Params: p}
	if p.Alpha <= 0 || p.Alpha >= 1 {
		return r, fmt.Errorf("core: Alpha %g outside (0,1)", p.Alpha)
	}
	if p.CTFraction < 0 || p.CTFraction > 1 {
		return r, fmt.Errorf("core: CTFraction %g outside [0,1]", p.CTFraction)
	}
	switch {
	case p.CellSupport > 0:
		r.s = p.CellSupport
	case p.CellSupport < 0:
		return r, fmt.Errorf("core: negative CellSupport %d", p.CellSupport)
	case p.CellSupportFrac > 0 && p.CellSupportFrac <= 1:
		r.s = int(p.CellSupportFrac * float64(numTx))
		if r.s < 1 {
			r.s = 1
		}
	default:
		return r, fmt.Errorf("core: need CellSupport > 0 or CellSupportFrac in (0,1], got %d and %g",
			p.CellSupport, p.CellSupportFrac)
	}
	cutoff, err := chisq.Quantile(p.Alpha, 1)
	if err != nil {
		return r, err
	}
	r.cutoff = cutoff
	r.maxLevel = p.MaxLevel
	if r.maxLevel == 0 {
		r.maxLevel = defaultMaxLevel
	}
	if r.maxLevel < 2 {
		return r, fmt.Errorf("core: MaxLevel %d below 2", r.maxLevel)
	}
	return r, nil
}

// Stats mirrors the cost accounting of the paper's Section 3.3: the number
// of sets an algorithm considers (contingency tables it constructs)
// dominates, since it drives database scanning.
type Stats struct {
	SetsConsidered  int // contingency tables constructed
	PrunedByAM      int // candidates dropped by non-succinct AM constraints before counting
	ChiSquaredTests int
	Levels          int // lattice levels visited
	Candidates      int // candidates generated (before AM pre-checks)
	DBScans         int // batch counting passes issued to the Counter

	// CellsCounted is the number of contingency-table cells charged to
	// counting batches (2^k per k-set) — the same unit Budget.MaxCells
	// caps and the unit per-tenant work quotas are charged in, so an
	// expensive mine counts more than a cheap one.
	CellsCounted int64

	// LevelDurations holds the wall-clock window of each lattice level
	// visited, in visit order; len(LevelDurations) == Levels. Each entry
	// is the Duration of that level's record (ProgressEvent). Excluded
	// from JSON — the server surfaces it as level_seconds.
	LevelDurations []time.Duration `json:"-"`
}

// Result is the outcome of a mining run.
type Result struct {
	// Answers is the computed answer set in canonical order.
	Answers []itemset.Set
	// Stats records the work performed.
	Stats Stats
	// Truncated reports that the run stopped before exhausting the search
	// space — the context was cancelled, its deadline passed, or the
	// Budget ran out. Answers then holds the sound answers of the lattice
	// levels that completed: every reported set genuinely belongs to the
	// full answer set, but some answers may be missing.
	Truncated bool
	// Cause is the truncation cause: context.Canceled,
	// context.DeadlineExceeded, or an error wrapping ErrBudgetExceeded.
	// Nil when Truncated is false.
	Cause error
}

// Miner binds a database, a counting engine and query parameters. Create
// one with New and run any of the algorithm methods. All run state lives
// in per-run control blocks, so a Miner is safe for concurrent runs
// exactly when its counter is: the bitmap-family counters (the default)
// qualify, the horizontal scanners do not.
type Miner struct {
	cat      *dataset.Catalog
	cnt      counting.Counter
	res      resolved
	progress ProgressFunc
	budget   Budget
	workers  int
	prof     *obs.Profile // nil = profiling off (see WithProfile)
}

// Option configures a Miner.
type Option func(*minerConfig)

type minerConfig struct {
	counter  counting.Counter
	progress ProgressFunc
	budget   Budget
	workers  int
	prof     *obs.Profile
}

// WithCounter selects the counting engine (default: a BitmapCounter built
// from the database).
func WithCounter(c counting.Counter) Option {
	return func(cfg *minerConfig) { cfg.counter = c }
}

// WithWorkers sets the number of worker goroutines the level engine uses
// to shard each lattice level's candidate evaluation (see parallel.go):
// 0 (the default) means GOMAXPROCS, 1 forces the exact serial path, and
// negative values are treated as 1. Parallel counting requires a counter
// implementing counting.ShardCounter (the bitmap family); with any other
// counter the engine silently runs serially. Workers only changes
// wall-clock time — the mined answers, Stats counters, and truncation
// behavior are identical at every setting.
func WithWorkers(n int) Option {
	return func(cfg *minerConfig) { cfg.workers = n }
}

// ProgressEvent is the record of one level, emitted once when the level
// ends — committed or truncated. It is the one per-level record of a run:
// Stats.LevelDurations, the levels metric and the profiler's level records
// are fed from the same record, so every surface reports the same window
// for a level (see DESIGN.md §13).
type ProgressEvent struct {
	// Algorithm is the running algorithm's name (e.g. "BMS++"); levels of
	// the shared baseline carry the name of the run they belong to.
	Algorithm string
	// Phase distinguishes multi-phase algorithms: "levelwise" for the
	// downward search, "supp"/"chi" for BMS**'s phases, "sweep" for the
	// upward sweep of BMS*. BMS**'s "chi" levels evaluate stored tables
	// without counting and are not counted in Stats.Levels.
	Phase string
	// Level is the itemset size being processed.
	Level int
	// Candidates is the number of candidate sets at this level after
	// pruning by succinct constraints and candidate generation.
	Candidates int
	// Kept is the number of candidates that survived the level's
	// pre-checks and were counted.
	Kept int
	// Cells is the number of contingency-table cells the level charged.
	Cells int64
	// Start is when the level's window opened; Duration is its length.
	// The window runs from the level-boundary truncation check through the
	// commit step, including the next level's candidate generation.
	Start    time.Time
	Duration time.Duration
}

// ProgressFunc observes mining progress, one call per level record. It is
// called synchronously on the mining goroutine; keep it fast.
type ProgressFunc func(ProgressEvent)

// WithProgress installs a progress observer.
func WithProgress(fn ProgressFunc) Option {
	return func(cfg *minerConfig) { cfg.progress = fn }
}

// New validates the parameters against db and returns a ready Miner.
func New(db *dataset.DB, p Params, opts ...Option) (*Miner, error) {
	cfg := minerConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.counter == nil {
		cfg.counter = counting.NewBitmapCounter(db)
	}
	r, err := p.resolve(db.NumTx())
	if err != nil {
		return nil, err
	}
	if ir, ok := cfg.counter.(counting.IndexReporter); ok {
		cfg.prof.SetIndex(string(ir.IndexBackend()), ir.IndexBytes())
	}
	return &Miner{cat: db.Catalog, cnt: cfg.counter, res: r, progress: cfg.progress, budget: cfg.budget, workers: cfg.workers, prof: cfg.prof}, nil
}

// Catalog returns the item catalog the miner operates over.
func (m *Miner) Catalog() *dataset.Catalog { return m.cat }

// CellSupport returns the resolved absolute cell-support threshold s.
func (m *Miner) CellSupport() int { return m.res.s }

// Cutoff returns the chi-squared critical value in force.
func (m *Miner) Cutoff() float64 { return m.res.cutoff }

// frequentItems returns the items with support >= s that pass the allowed
// filter (nil = no filter), in ascending order.
func (m *Miner) frequentItems(allowed constraint.ItemFilter) []itemset.Item {
	sup := m.cnt.ItemSupports()
	var out []itemset.Item
	for i, c := range sup {
		if c < m.res.s {
			continue
		}
		if allowed != nil && !allowed(m.cat.Info(itemset.Item(i))) {
			continue
		}
		out = append(out, itemset.Item(i))
	}
	return out
}

// pairs returns the level-2 candidates {a, b} with a from plus and b from
// the union of plus and minus (the paper's CAND_2 rule; pass the same slice
// twice for the unconstrained all-pairs rule with minus nil).
func pairs(plus, minus []itemset.Item) []itemset.Set {
	var out []itemset.Set
	seen := itemset.NewRegistry()
	for _, a := range plus {
		for _, b := range plus {
			if a < b {
				out = append(out, itemset.New(a, b))
			}
		}
		for _, b := range minus {
			if a == b {
				continue
			}
			s := itemset.New(a, b)
			if seen.Add(s) {
				out = append(out, s)
			}
		}
	}
	itemset.SortSets(out)
	return out
}

// extend generates the next level's candidates: every |base|+1-set obtained
// by adding one pool item to a base set, deduplicated, and kept only if
// every |base|-subset T with relevant(T) true is present in blocked.
// relevant == nil means every subset must be present (the classic Apriori
// prune); the witness-push algorithms pass a filter that exempts
// unwitnessed subsets.
func extend(bases []itemset.Set, pool []itemset.Item, relevant func(itemset.Set) bool, blocked *itemset.Registry) []itemset.Set {
	seen := itemset.NewRegistry()
	var out []itemset.Set
	for _, b := range bases {
		for _, x := range pool {
			if b.Contains(x) {
				continue
			}
			cand := b.With(x)
			if !seen.Add(cand) {
				continue
			}
			ok := true
			cand.Subsets1(func(sub itemset.Set) bool {
				if relevant != nil && !relevant(sub) {
					return true
				}
				if !blocked.Has(sub) {
					ok = false
					return false
				}
				return true
			})
			if ok {
				out = append(out, cand)
			}
		}
	}
	itemset.SortSets(out)
	return out
}

// correlated applies the chi-squared test at the resolved cutoff.
func (m *Miner) correlated(stats *Stats, t *contingency.Table) bool {
	stats.ChiSquaredTests++
	return t.ChiSquared() >= m.res.cutoff
}
