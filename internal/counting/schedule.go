package counting

import (
	"sort"

	"ccs/internal/dataset"
	"ccs/internal/itemset"
)

// This file is the cost model and shard scheduler of the parallel counting
// path (DESIGN.md §14). The old scheduler sharded a lattice level by
// sibling groups alone, which on real batches produced shards far below
// the hand-off cost (mean shard ≪ 100µs) and a 1.3-1.6× worker skew. The
// replacement prices every candidate in word-operations — the unit of
// bitset intersection work — packs adjacent prefix runs into shards that
// meet a per-shard cost budget, and dispatches the costliest shards first
// so one oversized shard cannot strand the pool at the end of a level.

// wordsPerList is the length of one dense TID-list in 64-bit words — the
// unit cost of a single bitset AND over the database, and the upper bound
// any compressed column is clamped to.
func wordsPerList(numTx int) int64 {
	w := int64(numTx+63) / 64
	if w < 1 {
		w = 1
	}
	return w
}

// CostModel prices counting work in word-operations. The uniform model
// (NewDenseCostModel) assumes every TID-list costs the full dense word
// count — correct for the dense backend, where every column really is
// numTx/64 words. A counter-derived model (BitmapCounter.CostModel) carries
// the actual per-item column sizes, so under the compressed backend a
// candidate over rare items is priced at its few array containers instead
// of the dense worst case — without this, sparse levels split into shards
// sized for work that isn't there.
type CostModel struct {
	words int64   // dense word count: the uniform unit and per-item ceiling
	col   []int64 // per-item column size in word units; nil = uniform
}

// NewDenseCostModel returns the uniform model for a numTx-transaction
// database.
func NewDenseCostModel(numTx int) CostModel {
	return CostModel{words: wordsPerList(numTx)}
}

// CostModeler is implemented by counters that can price counting work from
// their actual index representation.
type CostModeler interface {
	CostModel() CostModel
}

// CostModelOf returns c's own model when it offers one, else the uniform
// dense model over c's transaction count.
func CostModelOf(c Counter) CostModel {
	if m, ok := c.(CostModeler); ok {
		return m.CostModel()
	}
	return NewDenseCostModel(c.NumTx())
}

// CostModel implements CostModeler from the vertical index's real column
// sizes. Under the dense backend every column prices at the uniform word
// count, so the model is exactly the historical one. The model is built
// once at counter construction (the index is immutable) and shared.
func (b *BitmapCounter) CostModel() CostModel { return b.costm }

// buildCostModel derives the per-item cost model from idx's column sizes.
func buildCostModel(idx *dataset.VerticalIndex, numItems int) CostModel {
	m := CostModel{words: wordsPerList(idx.NumTx()), col: make([]int64, numItems)}
	for i := range m.col {
		w := idx.ColumnBytes(itemset.Item(i)) / 8
		if w < 1 {
			w = 1
		}
		if w > m.words {
			w = m.words
		}
		m.col[i] = w
	}
	return m
}

// setWords is the unit intersection cost of one candidate: the smallest of
// its items' column sizes. An intersection's work is bounded by its
// smallest operand — the mask walk ANDs into an accumulator that starts as
// one column and only shrinks — so the cheapest column governs.
func (m CostModel) setWords(s itemset.Set) int64 {
	best := m.words
	if m.col != nil {
		for _, id := range s {
			if int(id) < len(m.col) && m.col[id] < best {
				best = m.col[id]
			}
		}
	}
	if best < 1 {
		return 1
	}
	return best
}

// candidateCost prices one k-candidate in word-operations. A cold
// candidate walks its full subset lattice: ~2^k intersections, each one
// AND over the TID-list (the vertical cost model — 2^k contingency cells,
// each priced at the list length). A warm candidate (a later member of a
// prefix run, whose (k-1)-prefix the run's first member just materialized
// and cached) skips the prefix half of the lattice: ~2^(k-1) intersections.
// Singletons do no intersection at all — their supports are precomputed —
// so they are priced at table assembly only.
func candidateCost(k int, words int64, warm bool) int64 {
	if k < 2 {
		return 1
	}
	lattice := int64(1) << uint(k)
	if warm {
		lattice = lattice/2 + 1
	}
	return lattice * words
}

// runCost prices one prefix run, candidates [lo,hi) of sets: the first
// member pays the cold cost, its siblings the warm cost, each at its own
// per-item unit cost.
func (m CostModel) runCost(sets []itemset.Set, lo, hi int) int64 {
	if hi <= lo {
		return 0
	}
	total := candidateCost(sets[lo].Size(), m.setWords(sets[lo]), false)
	for i := lo + 1; i < hi; i++ {
		total += candidateCost(sets[i].Size(), m.setWords(sets[i]), true)
	}
	return total
}

// BatchCost estimates the total counting cost of a canonical batch in
// word-operations, pricing each prefix run with runCost — the estimate
// PlanShards totals when it decides whether a level is worth sharding at
// all (a batch below MinShardCost is one shard, counted inline).
func (m CostModel) BatchCost(sets []itemset.Set) int64 {
	var total int64
	for _, r := range PrefixRuns(sets) {
		total += m.runCost(sets, r[0], r[1])
	}
	return total
}

// BatchCost prices a batch with the uniform dense model — the historical
// entry point, exact for the dense backend.
func BatchCost(sets []itemset.Set, numTx int) int64 {
	return NewDenseCostModel(numTx).BatchCost(sets)
}

// MinShardCost is the smallest estimated shard cost worth dispatching to a
// worker goroutine, in word-operations. Calibration: one word-operation is
// roughly a nanosecond of AND/popcount work on current hardware, so 1<<17
// ≈ 130µs per shard — above the ~100µs floor under which the per-shard
// hand-off (channel send, wake-up, cache-line traffic) costs more than the
// counting it overlaps.
const MinShardCost = 1 << 17

// shardsPerWorker over-decomposes the level into more shards than workers
// so the longest-first dispatch can keep the pool busy while the largest
// shards run; 4 is enough slack without shrinking shards below budget.
const shardsPerWorker = 4

// Shard is one contiguous span of a candidate batch with its estimated
// counting cost.
type Shard struct {
	// Span is the half-open candidate index range [Span[0], Span[1]).
	Span [2]int
	// Cost is the span's estimated counting cost in word-operations.
	Cost int64
}

// ShardPlan is a level's counting schedule: contiguous, prefix-aligned
// shards covering the batch, their total estimated cost, and the dispatch
// order (costliest first).
type ShardPlan struct {
	Shards []Shard
	// Total is the whole batch's estimated cost in word-operations.
	Total int64
	// Order permutes Shards into dispatch order: descending estimated
	// cost, ties broken by shard index so the order is deterministic.
	// Longest-first dispatch bounds the tail: the pool finishes the big
	// shards while small ones remain to level the finish line.
	Order []int
}

// PlanShards builds the counting schedule for one canonical batch.
// Shard boundaries fall only on prefix-run boundaries (a sibling group —
// the unit of prefix-cache reuse — never splits across workers). Each
// shard's estimated cost reaches the per-shard budget
// max(total/(workers×shardsPerWorker), MinShardCost) before it closes, so
// shards are big enough to amortize hand-off and few enough to schedule
// well; a batch worth less than one budget yields a single shard, which
// callers treat as "run serial".
func (m CostModel) PlanShards(sets []itemset.Set, workers int) ShardPlan {
	plan := ShardPlan{}
	if len(sets) == 0 {
		return plan
	}
	if workers < 1 {
		workers = 1
	}
	runs := PrefixRuns(sets)
	costs := make([]int64, len(runs))
	for i, r := range runs {
		costs[i] = m.runCost(sets, r[0], r[1])
		plan.Total += costs[i]
	}
	budget := plan.Total / int64(workers*shardsPerWorker)
	if budget < MinShardCost {
		budget = MinShardCost
	}
	start, acc := runs[0][0], int64(0)
	for i, r := range runs {
		acc += costs[i]
		if acc >= budget {
			plan.Shards = append(plan.Shards, Shard{Span: [2]int{start, r[1]}, Cost: acc})
			start, acc = r[1], 0
		}
	}
	if acc > 0 || len(plan.Shards) == 0 {
		plan.Shards = append(plan.Shards, Shard{Span: [2]int{start, runs[len(runs)-1][1]}, Cost: acc})
	}
	plan.Order = make([]int, len(plan.Shards))
	for i := range plan.Order {
		plan.Order[i] = i
	}
	sort.SliceStable(plan.Order, func(a, b int) bool {
		ca, cb := plan.Shards[plan.Order[a]].Cost, plan.Shards[plan.Order[b]].Cost
		if ca != cb {
			return ca > cb
		}
		return plan.Order[a] < plan.Order[b]
	})
	return plan
}

// PrefixRuns splits [0, len(sets)) into half-open index spans of adjacent
// sets that share their full prefix (all items but the last). Sets of
// different sizes, or with any differing prefix item, break the run. The
// batch must be in canonical order (itemset.SortSets) for the runs to be
// exactly the sibling groups; PlanShards cuts shards only along these
// runs so the worker that caches a prefix TID-list is the worker that
// reuses it.
func PrefixRuns(sets []itemset.Set) [][2]int {
	runs := make([][2]int, 0, len(sets))
	start := 0
	for i := 1; i < len(sets); i++ {
		if !samePrefixSet(sets[start], sets[i]) {
			runs = append(runs, [2]int{start, i})
			start = i
		}
	}
	if len(sets) > 0 {
		runs = append(runs, [2]int{start, len(sets)})
	}
	return runs
}

// samePrefixSet reports whether a and b have equal size and agree on every
// item but the last. Singletons share only the empty prefix, so they never
// group — grouping them would serialize a level-1 batch for no reuse.
func samePrefixSet(a, b itemset.Set) bool {
	if len(a) != len(b) || len(a) < 2 {
		return false
	}
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PlanShards plans with the uniform dense model — the historical entry
// point, exact for the dense backend.
func PlanShards(sets []itemset.Set, numTx, workers int) ShardPlan {
	return NewDenseCostModel(numTx).PlanShards(sets, workers)
}
