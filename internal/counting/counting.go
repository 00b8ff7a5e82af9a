// Package counting turns a transaction database into contingency tables.
// It offers two independent engines with identical semantics:
//
//   - ScanCounter: horizontal, one pass over the transactions per batch —
//     the paper's cost model, where the number of candidate batches is the
//     number of database scans.
//   - BitmapCounter: vertical, intersecting per-item TID bitsets and
//     recovering minterm counts from subset supports by Möbius inversion.
//
// The two are cross-checked against each other in tests; the mining
// algorithms take the Counter interface and work with either.
package counting

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"ccs/internal/contingency"
	"ccs/internal/dataset"
	"ccs/internal/itemset"
	"ccs/internal/tidlist"
)

// Stats records the work a counter has performed, mirroring the cost
// accounting of the paper's Section 3.3.
type Stats struct {
	Batches     int // CountTables calls = database scans for ScanCounter
	TablesBuilt int // contingency tables constructed
}

// Counter builds contingency tables for batches of itemsets.
type Counter interface {
	// NumTx returns the number of transactions covered.
	NumTx() int
	// ItemSupports returns per-item support counts (level-1 statistics).
	ItemSupports() []int
	// CountTables builds one contingency table per itemset. A call
	// represents one logical pass over the database.
	CountTables(sets []itemset.Set) ([]*contingency.Table, error)
	// Stats reports cumulative work counters.
	Stats() Stats
}

// ContextCounter is a Counter that also supports cooperative cancellation.
// All counters in this package implement it; the mining core uses the
// context-aware path whenever the caller supplied a cancellable context.
type ContextCounter interface {
	Counter
	// CountTablesContext is CountTables honoring ctx: once ctx is
	// cancelled it returns (nil, ctx.Err()) promptly, abandoning the
	// batch mid-flight. Partially counted tables are never returned.
	CountTablesContext(ctx context.Context, sets []itemset.Set) ([]*contingency.Table, error)
}

// ShardCounter is a ContextCounter whose counting path is safe for
// concurrent use: the mining core's parallel level engine splits each
// lattice level into prefix-aligned shards and issues one CountShard call
// per shard from several worker goroutines at once. The bitmap-family
// counters implement it (their vertical index is read-only, the scratch
// arenas are pooled per goroutine, the prefix cache is mutex-guarded, and
// the work counters are atomic); the horizontal scanners do not, so the
// core falls back to its serial path for them.
type ShardCounter interface {
	ContextCounter
	// CountShard is CountTablesContext with a concurrency guarantee:
	// multiple goroutines may call it simultaneously on disjoint shards of
	// one batch.
	CountShard(ctx context.Context, sets []itemset.Set) ([]*contingency.Table, error)
}

// ArenaCounter is a ShardCounter that additionally supports per-worker
// prefix-cache arenas and caller-owned result buffers — the zero-lock,
// zero-allocation-per-shard contract the mining core's parallel level
// engine runs on. Per level the core calls NewLevelArenas once, hands each
// worker its own arena (nil is fine — counting runs uncached), issues
// CountShardArena from the workers, and calls Commit on the LevelArenas
// after the level's last shard so the shared cache absorbs the level's
// prefixes in one locked pass.
type ArenaCounter interface {
	ShardCounter
	// NewLevelArenas returns n worker-private arenas seeded from a
	// read-only snapshot of the shared prefix cache, or nil when the
	// counter is uncached.
	NewLevelArenas(n int) *LevelArenas
	// CountShardArena is CountShard writing tables into out (len(out)
	// must equal len(sets); the caller owns and may reuse the buffer)
	// with cache traffic routed through arena (nil = uncached).
	CountShardArena(ctx context.Context, sets []itemset.Set, out []*contingency.Table, arena *CacheArena) error
}

// checkEvery is how many transactions (or sets) a counting loop processes
// between cancellation polls — coarse enough to stay off the hot path,
// fine enough to stop within microseconds of a cancel.
const checkEvery = 1024

// cancelled polls ctx without blocking; done is ctx.Done(), hoisted by the
// caller so the nil-channel fast path costs one compare per poll.
func cancelled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// ScanCounter counts minterms by scanning the horizontal transaction list.
type ScanCounter struct {
	db    *dataset.DB
	stats Stats
}

// NewScanCounter returns a horizontal counter over db.
func NewScanCounter(db *dataset.DB) *ScanCounter {
	return &ScanCounter{db: db}
}

// NumTx implements Counter.
func (s *ScanCounter) NumTx() int { return s.db.NumTx() }

// ItemSupports implements Counter.
func (s *ScanCounter) ItemSupports() []int { return s.db.ItemSupports() }

// Stats implements Counter.
func (s *ScanCounter) Stats() Stats { return s.stats }

// CountTables implements Counter with a single pass over the database for
// the whole batch.
func (s *ScanCounter) CountTables(sets []itemset.Set) ([]*contingency.Table, error) {
	return s.CountTablesContext(context.Background(), sets)
}

// setBit locates one bit of one batch set: item lookup[id] drives bit `bit`
// of the minterm index of set `set`.
type setBit struct {
	set int
	bit uint
}

// CountTablesContext implements ContextCounter, polling ctx every
// checkEvery transactions of the pass.
//
// Instead of merging every set against every transaction (the old
// mintermIndex loop, O(batch × |tx|) per transaction), the pass inverts the
// batch once into a per-item lookup: scanning a transaction then touches
// only the sets that share an item with it. The all-absent cell of each
// table is recovered at the end as n minus the touched counts, which is
// exactly what per-transaction increments would have produced.
func (s *ScanCounter) CountTablesContext(ctx context.Context, sets []itemset.Set) ([]*contingency.Table, error) {
	s.stats.Batches++
	s.stats.TablesBuilt += len(sets)
	recordSetsCounted("scan", len(sets))
	cells := make([][]int, len(sets))
	maxItem := s.db.NumItems()
	for i, set := range sets {
		if set.Size() > contingency.MaxItems {
			return nil, fmt.Errorf("counting: itemset %v exceeds %d items", set, contingency.MaxItems)
		}
		cells[i] = make([]int, 1<<uint(set.Size()))
		if k := set.Size(); k > 0 && int(set[k-1]) >= maxItem {
			maxItem = int(set[k-1]) + 1
		}
	}
	lookup := make([][]setBit, maxItem)
	for i, set := range sets {
		for j, id := range set {
			lookup[id] = append(lookup[id], setBit{set: i, bit: uint(j)})
		}
	}
	idx := make([]int, len(sets))        // minterm accumulator per set
	touched := make([]int, 0, len(sets)) // sets with a nonzero accumulator
	done := ctx.Done()
	for ti, tx := range s.db.Tx {
		if ti%checkEvery == 0 && cancelled(done) {
			return nil, ctx.Err()
		}
		for _, id := range tx {
			for _, sb := range lookup[id] {
				if idx[sb.set] == 0 {
					touched = append(touched, sb.set)
				}
				idx[sb.set] |= 1 << sb.bit
			}
		}
		for _, si := range touched {
			cells[si][idx[si]]++
			idx[si] = 0
		}
		touched = touched[:0]
	}
	n := s.db.NumTx()
	out := make([]*contingency.Table, len(sets))
	for i, set := range sets {
		absent := n
		for _, c := range cells[i][1:] {
			absent -= c
		}
		cells[i][0] = absent
		t, err := contingency.New(set, n, cells[i])
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// mintermIndex computes the contingency cell of transaction tx for itemset
// set: bit j is set iff set[j] ∈ tx. Both slices are in canonical order, so
// a linear merge suffices.
func mintermIndex(set itemset.Set, tx dataset.Transaction) int {
	idx := 0
	ti := 0
	for j, id := range set {
		for ti < len(tx) && tx[ti] < id {
			ti++
		}
		if ti < len(tx) && tx[ti] == id {
			idx |= 1 << uint(j)
			ti++
		}
	}
	return idx
}

// BitmapCounter counts minterms from a vertical index. Subset supports are
// computed by intersecting item columns (sharing work across the subset
// lattice), then minterm counts follow by Möbius inversion over subsets.
//
// The kernel is representation-agnostic: it speaks tidlist.List, so the
// same walk runs over dense bitset words or roaring-style compressed
// containers, and a cached prefix keeps whichever representation its
// intersection produced. It is allocation-free on its hot path:
// intersections that no later subset builds on are counted in place
// (tidlist.AndCount) instead of materialized, and the lists that are
// materialized come from a sync.Pool-backed scratch arena. With a prefix
// cache attached (see NewCachedBitmapCounter), the TID-lists of canonical
// prefixes persist across batches and levels, so a level-(k+1) candidate
// fetches its level-k prefix instead of re-intersecting it.
type BitmapCounter struct {
	idx      *dataset.VerticalIndex
	items    []int
	cache    *prefixCache // nil = no cross-batch prefix reuse
	scratch  sync.Pool    // *countScratch
	engine   string       // metrics label: "bitmap" or "cached"
	idxBytes int64        // resident index size, fixed at construction
	costm    CostModel    // per-item shard pricing, fixed at construction

	// Work counters are atomic so concurrent CountShard callers (the
	// mining core's level-engine workers) never race on them.
	batches     atomic.Int64
	tablesBuilt atomic.Int64
}

func newBitmapCounter(idx *dataset.VerticalIndex, itemSupports []int, cache *prefixCache) *BitmapCounter {
	b := &BitmapCounter{idx: idx, items: itemSupports, cache: cache, engine: "bitmap", idxBytes: idx.SizeBytes()}
	b.costm = buildCostModel(idx, len(itemSupports))
	if cache != nil {
		b.engine = "cached"
	}
	b.scratch.New = func() interface{} { return &countScratch{} }
	indexBytes.With(string(idx.Backend())).Set(b.idxBytes)
	return b
}

// NewBitmapCounter builds the vertical index for db and returns the counter.
// The TID-list representation is chosen by density (tidlist.Choose); use
// NewBitmapCounterBackend to pin it.
func NewBitmapCounter(db *dataset.DB) *BitmapCounter {
	return NewBitmapCounterBackend(db, tidlist.BackendAuto)
}

// NewBitmapCounterBackend is NewBitmapCounter with the TID-list
// representation pinned (tidlist.BackendAuto keeps the density heuristic).
func NewBitmapCounterBackend(db *dataset.DB, backend tidlist.Backend) *BitmapCounter {
	return newBitmapCounter(dataset.BuildVerticalIndexBackend(db, backend), db.ItemSupports(), nil)
}

// NewBitmapCounterFromIndex wraps an existing vertical index; itemSupports
// must match the index.
func NewBitmapCounterFromIndex(idx *dataset.VerticalIndex, itemSupports []int) *BitmapCounter {
	return newBitmapCounter(idx, itemSupports, nil)
}

// NewCachedBitmapCounter is NewBitmapCounter with a prefix-intersection
// cache of at most cacheBytes bytes attached (cacheBytes <= 0 means
// DefaultCacheBytes). The cache persists across CountTables calls, which is
// where it earns its keep: the mining core issues one batch per lattice
// level with candidates in canonical (prefix-adjacent) order, so sibling
// candidates hit the prefix a moment after it is stored and level-(k+1)
// candidates find the full TID-list their level-k prefix left behind.
func NewCachedBitmapCounter(db *dataset.DB, cacheBytes int64) *BitmapCounter {
	return NewCachedBitmapCounterBackend(db, cacheBytes, tidlist.BackendAuto)
}

// NewCachedBitmapCounterBackend is NewCachedBitmapCounter with the TID-list
// representation pinned.
func NewCachedBitmapCounterBackend(db *dataset.DB, cacheBytes int64, backend tidlist.Backend) *BitmapCounter {
	return newBitmapCounter(dataset.BuildVerticalIndexBackend(db, backend), db.ItemSupports(), newPrefixCache(cacheBytes))
}

// IndexReporter is implemented by counters backed by a vertical index; it
// exposes which TID-list representation the index resolved to and what it
// costs resident. The mining core and the HTTP service use it for the
// per-mine profile's backend/index_bytes fields.
type IndexReporter interface {
	IndexBackend() tidlist.Backend
	IndexBytes() int64
}

// IndexBackend reports the resolved TID-list representation of the
// counter's vertical index.
func (b *BitmapCounter) IndexBackend() tidlist.Backend { return b.idx.Backend() }

// IndexBytes reports the resident size of the counter's vertical index.
func (b *BitmapCounter) IndexBytes() int64 { return b.idxBytes }

// CacheStats snapshots the prefix cache's counters; the zero CacheStats is
// returned when the counter has no cache.
func (b *BitmapCounter) CacheStats() CacheStats {
	if b.cache == nil {
		return CacheStats{}
	}
	return b.cache.stats()
}

// ReleaseCache drops every cached TID-list and returns their bytes to the
// ccs_prefix_cache_bytes gauge. Call it when a cached counter's run ends
// (the HTTP service defers it per request); the counter remains usable.
func (b *BitmapCounter) ReleaseCache() {
	if b.cache != nil {
		b.cache.release()
	}
}

// NumTx implements Counter.
func (b *BitmapCounter) NumTx() int { return b.idx.NumTx() }

// ItemSupports implements Counter.
func (b *BitmapCounter) ItemSupports() []int {
	out := make([]int, len(b.items))
	copy(out, b.items)
	return out
}

// Stats implements Counter.
func (b *BitmapCounter) Stats() Stats {
	return Stats{Batches: int(b.batches.Load()), TablesBuilt: int(b.tablesBuilt.Load())}
}

// CountTables implements Counter.
func (b *BitmapCounter) CountTables(sets []itemset.Set) ([]*contingency.Table, error) {
	return b.CountTablesContext(context.Background(), sets)
}

// CountShard implements ShardCounter. The whole counting path is safe for
// concurrent use — countOne draws its scratch arena from a sync.Pool, the
// vertical index is read-only, the prefix cache locks internally, and the
// work counters are atomic — so CountShard is simply CountTablesContext
// under its concurrency contract.
func (b *BitmapCounter) CountShard(ctx context.Context, sets []itemset.Set) ([]*contingency.Table, error) {
	return b.CountTablesContext(ctx, sets)
}

// CountTablesContext implements ContextCounter, polling ctx between sets
// (one set costs 2^k bitset intersections, so the granularity is fine).
// When the context carries a profiling arena (WithShardProf), per-set work
// is tallied into it; the arena lookup happens once per batch.
func (b *BitmapCounter) CountTablesContext(ctx context.Context, sets []itemset.Set) ([]*contingency.Table, error) {
	b.batches.Add(1)
	b.tablesBuilt.Add(int64(len(sets)))
	recordSetsCounted(b.engine, len(sets))
	done := ctx.Done()
	prof := shardProfFrom(ctx)
	out := make([]*contingency.Table, len(sets))
	for i, set := range sets {
		if cancelled(done) {
			return nil, ctx.Err()
		}
		t, err := b.countOne(set, prof)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// countScratch is the reusable working state of one countOne call: the
// per-mask intersection registers plus a free list of TID-lists recycled
// across calls. It travels through a sync.Pool so concurrent callers
// (the level engine's workers) each get their own arena without locking.
type countScratch struct {
	inter []tidlist.List // per-mask intersections; always written before read
	owned []tidlist.List // materialized this call, recyclable unless cached
	spare []tidlist.List // recycled lists, reused across calls
	key   []byte         // cache-key encoding buffer, reused per prefix
}

// registers returns the intersection table sized for this call. Entries are
// not cleared: the mask walk writes inter[mask] before any larger mask
// reads it, so stale pointers are never observed.
func (sc *countScratch) registers(size int) []tidlist.List {
	if cap(sc.inter) < size {
		sc.inter = make([]tidlist.List, size)
	}
	return sc.inter[:size]
}

// take returns a TID-list matching idx's backend and universe, with
// arbitrary contents (the caller overwrites them with And). A scratch arena
// only ever serves one counter, so every recycled list already has the
// right shape.
func (sc *countScratch) take(idx *dataset.VerticalIndex) tidlist.List {
	if last := len(sc.spare) - 1; last >= 0 {
		bs := sc.spare[last]
		sc.spare = sc.spare[:last]
		return bs
	}
	return idx.NewList()
}

// recycle moves this call's still-owned bitsets to the free list and drops
// the register references so evicted cache entries are not pinned.
func (sc *countScratch) recycle(size int) {
	sc.spare = append(sc.spare, sc.owned...)
	sc.owned = sc.owned[:0]
	inter := sc.inter[:size]
	for i := range inter {
		inter[i] = nil
	}
}

// countOne builds the contingency table of one itemset.
//
// Subset intersections are decomposed by their highest item: the TID-list
// of sub-itemset {set[b1..bt]} (b1<…<bt) is inter[{b1..b(t-1)}] ∩ col(bt).
// Two properties follow. First, a mask whose highest bit is the last item
// is never a building block of any other mask, so its support is popcounted
// straight off the operands (tidlist.AndCount) without materializing the
// intersection — half the lattice allocates nothing. Second, the masks
// (1<<j)-1 are exactly the canonical j-item prefixes of the set, which is
// what makes the prefix cache compose with the walk: a cached prefix seeds
// its register directly, and a computed prefix is handed to the cache for
// the sibling and next-level candidates that share it.
// prof, when non-nil, receives per-shard profiling tallies (sets, cells,
// cache hit/miss counts, and wall time spent inside cache get/put). The
// nil case adds only predictable pointer-nil branches to the hot path —
// no clock reads, no allocations.
func (b *BitmapCounter) countOne(set itemset.Set, prof *ShardProf) (*contingency.Table, error) {
	return b.countOneArena(set, prof, nil)
}

// countOneArena is countOne with the prefix-cache traffic routed through a
// worker-private CacheArena when one is supplied: gets probe the arena's
// local store then the shared snapshot, puts land in the arena — zero
// locks, zero atomics on the whole path. A nil arena uses the shared
// locked cache (the serial path).
func (b *BitmapCounter) countOneArena(set itemset.Set, prof *ShardProf, arena *CacheArena) (*contingency.Table, error) {
	k := set.Size()
	if k > contingency.MaxItems {
		return nil, fmt.Errorf("counting: itemset %v exceeds %d items", set, contingency.MaxItems)
	}
	n := b.idx.NumTx()
	size := 1 << uint(k)
	if prof != nil {
		prof.Sets.Add(1)
		prof.Cells.Add(int64(size))
	}
	// g[mask] = support of the sub-itemset selected by mask. It becomes the
	// table's cell slice after inversion, so it cannot be pooled.
	g := make([]int, size)
	g[0] = n
	if k > 0 {
		sc := b.scratch.Get().(*countScratch)
		inter := sc.registers(size)
		for mask := 1; mask < size; mask++ {
			high := bits.Len(uint(mask)) - 1
			rest := mask &^ (1 << uint(high))
			col := b.idx.Column(set[high])
			if rest == 0 {
				inter[mask] = col
				g[mask] = b.items[set[high]]
				continue
			}
			// prefix: mask selects set[0..high] exactly — a cacheable
			// canonical sub-itemset (and, at mask size-1, the set itself).
			prefix := (arena != nil || b.cache != nil) && mask == (1<<uint(high+1))-1
			if prefix {
				sc.key = set[:high+1].AppendKey(sc.key[:0])
				var t0 time.Time
				if prof != nil {
					t0 = time.Now()
				}
				var (
					tids  tidlist.List
					count int
					ok    bool
				)
				if arena != nil {
					tids, count, ok = arena.get(sc.key)
				} else {
					tids, count, ok = b.cache.get(sc.key)
				}
				if prof != nil {
					prof.CacheNanos.Add(time.Since(t0).Nanoseconds())
					if ok {
						prof.CacheHits.Add(1)
					} else {
						prof.CacheMisses.Add(1)
					}
				}
				if ok {
					inter[mask] = tids
					g[mask] = count
					continue
				}
			}
			if high == k-1 && !prefix {
				// Never reused as a sub-intersection: count, don't build.
				g[mask] = tidlist.AndCount(inter[rest], col)
				continue
			}
			bs := sc.take(b.idx)
			bs.And(inter[rest], col)
			inter[mask] = bs
			g[mask] = bs.Cardinality()
			if prefix {
				var t0 time.Time
				if prof != nil {
					t0 = time.Now()
				}
				var stored bool
				if arena != nil {
					stored = arena.put(sc.key, bs, g[mask])
				} else {
					stored = b.cache.put(sc.key, bs, g[mask])
				}
				if prof != nil {
					prof.CacheNanos.Add(time.Since(t0).Nanoseconds())
				}
				if stored {
					continue // ownership moved to the cache; not recyclable
				}
			}
			sc.owned = append(sc.owned, bs)
		}
		sc.recycle(size)
		b.scratch.Put(sc)
	}
	// Möbius inversion over subsets: after the transform,
	// g[mask] = #transactions whose intersection with set is exactly mask.
	for j := 0; j < k; j++ {
		bit := 1 << uint(j)
		for mask := 0; mask < size; mask++ {
			if mask&bit == 0 {
				g[mask] -= g[mask|bit]
			}
		}
	}
	return contingency.New(set, n, g)
}
