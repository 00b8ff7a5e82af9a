package core

import "ccs/internal/obs"

// Metric names exported by the mining core. Keep metric names as
// package-level consts: the ccslint metriconst analyzer rejects computed
// names so the catalog in DESIGN.md stays greppable and complete.
const (
	// MetricMinesTotal counts mining runs started, by algorithm.
	MetricMinesTotal = "ccs_mines_total"
	// MetricMinesCompletedTotal counts runs that exhausted their search space.
	MetricMinesCompletedTotal = "ccs_mines_completed_total"
	// MetricMinesTruncatedTotal counts runs cut short by cancellation,
	// deadline, or budget (Result.Truncated).
	MetricMinesTruncatedTotal = "ccs_mines_truncated_total"
	// MetricLevelsTotal counts lattice levels visited.
	MetricLevelsTotal = "ccs_mine_levels_total"
	// MetricCandidatesTotal counts candidate sets generated.
	MetricCandidatesTotal = "ccs_candidates_total"
	// MetricCellsCountedTotal counts contingency-table cells charged to
	// counting batches (2^k per k-set).
	MetricCellsCountedTotal = "ccs_cells_counted_total"
	// MetricShardsTotal counts candidate shards counted by the level
	// engine, by algorithm (a level counted on the mining goroutine is one
	// shard).
	MetricShardsTotal = "ccs_mine_shards_total"
	// MetricShardSeconds observes the wall-clock duration of counting one
	// candidate shard.
	MetricShardSeconds = "ccs_mine_shard_seconds"
	// MetricWorkersBusy gauges level-engine workers currently counting a
	// shard; its ratio to the configured worker count is the pool's
	// utilization.
	MetricWorkersBusy = "ccs_mine_workers_busy"
)

var (
	minesStarted   = obs.Default().CounterVec(MetricMinesTotal, "Mining runs started, by algorithm.", "algo")
	minesCompleted = obs.Default().CounterVec(MetricMinesCompletedTotal, "Mining runs that ran to completion, by algorithm.", "algo")
	minesTruncated = obs.Default().CounterVec(MetricMinesTruncatedTotal, "Mining runs truncated by cancellation, deadline, or budget, by algorithm.", "algo")
	minedLevels    = obs.Default().CounterVec(MetricLevelsTotal, "Lattice levels visited, by algorithm.", "algo")
	minedCands     = obs.Default().CounterVec(MetricCandidatesTotal, "Candidate sets generated, by algorithm.", "algo")
	countedCells   = obs.Default().CounterVec(MetricCellsCountedTotal, "Contingency-table cells counted (2^k per k-set), by algorithm.", "algo")
	minedShards    = obs.Default().CounterVec(MetricShardsTotal, "Candidate shards counted by the level engine, by algorithm.", "algo")
	shardSeconds   = obs.Default().Histogram(MetricShardSeconds, "Wall-clock seconds spent counting one candidate shard.", obs.SubMillisecondBuckets)
	workersBusy    = obs.Default().Gauge(MetricWorkersBusy, "Level-engine workers currently counting a shard.")
)

// startMine records the start of one algorithm run.
func startMine(algo string) { minesStarted.With(algo).Inc() }

// recordMine records the outcome of one successful run: work totals from
// its Stats, the cells its control block charged, and whether it completed
// or was truncated. Failed runs (error return) record no outcome, so
// started - completed - truncated counts hard failures. Levels are counted
// as they close (closeLevel), not here.
func recordMine(res *Result, ctl *runCtl) {
	countedCells.With(ctl.algo).Add(ctl.cells)
	ctl.prof.Finish()
	res.Stats.CellsCounted = ctl.cells
	minedCands.With(ctl.algo).Add(int64(res.Stats.Candidates))
	if res.Truncated {
		minesTruncated.With(ctl.algo).Inc()
	} else {
		minesCompleted.With(ctl.algo).Inc()
	}
}
