package counting

import (
	"context"
	"fmt"

	"ccs/internal/contingency"
	"ccs/internal/itemset"
	"ccs/internal/tidlist"
)

// This file implements per-worker prefix-cache arenas (DESIGN.md §14).
// The shared prefixCache serializes every lookup on one mutex, which is
// fine for a serial mine but puts two lock acquisitions per candidate on
// the parallel hot path — at eight workers the cache lock was the single
// hottest line of a profiled mine. An arena removes all of it: each level,
// every worker receives a private CacheArena seeded with a read-only
// snapshot of the shared cache (the previous levels' hot prefixes), probes
// and fills it with zero synchronization while counting, and the mining
// goroutine merges all arenas back into the shared cache at level commit —
// one lock acquisition and one batched metrics send per level.
//
// Invariants:
//   - Snapshot entries are immutable and reference-held, so concurrent
//     eviction from the live shared cache never invalidates an arena read.
//   - An arena is owned by exactly one goroutine between NewLevelArenas
//     and Commit; its local store takes no locks.
//   - Each arena's local budget is the shared budget divided by the arena
//     count, so the level's transient overshoot is bounded at 2× budget
//     (shared entries + arena entries) regardless of worker count.
//   - Commit merges arenas in index order, oldest entry first, under the
//     shared byte budget. Merge order affects only which entries survive
//     eviction — cache contents never change mined answers, so worker
//     count cannot change results (the determinism suite pins this).

// CacheArena is one worker's private, unsynchronized prefix cache for one
// lattice level: a local byte-budgeted LRU over a read-only snapshot of
// the shared cache. Obtain arenas from an ArenaCounter's NewLevelArenas;
// never share one across goroutines.
type CacheArena struct {
	store cacheStore
	snap  map[string]*cacheEntry // read-only; shared by all sibling arenas

	hits, misses int64
}

// get looks the key up locally first (prefixes this worker materialized
// this level), then in the snapshot (prefixes committed by earlier
// levels). No locks, no atomics, no global metrics.
func (a *CacheArena) get(key []byte) (tidlist.List, int, bool) {
	if ent, ok := a.store.get(key); ok {
		a.hits++
		return ent.tids, ent.count, true
	}
	if ent, ok := a.snap[string(key)]; ok {
		a.hits++
		return ent.tids, ent.count, true
	}
	a.misses++
	return nil, 0, false
}

// put stores a TID-list in the local arena, reporting whether the arena
// took ownership (same contract as the shared cache's put). Entries
// already visible in the snapshot are not duplicated.
func (a *CacheArena) put(key []byte, tids tidlist.List, count int) bool {
	if _, ok := a.snap[string(key)]; ok {
		return false
	}
	stored, _, _ := a.store.put(key, tids, count)
	return stored
}

// LevelArenas is the arena set of one lattice level: one CacheArena per
// worker plus the shared cache they merge back into. A nil *LevelArenas is
// valid (an uncached counter) — Arena returns nil and Commit no-ops.
type LevelArenas struct {
	cache  *prefixCache
	arenas []*CacheArena
}

// Arena returns worker w's arena (nil on a nil set, so uncached counters
// cost one nil check).
func (la *LevelArenas) Arena(w int) *CacheArena {
	if la == nil || w < 0 || w >= len(la.arenas) {
		return nil
	}
	return la.arenas[w]
}

// Commit merges every arena back into the shared cache under its byte
// budget and batches the level's cache metrics into the global counters.
// Call it exactly once, from one goroutine, after all counting of the
// level has finished; the arenas are empty (and unusable for reads — their
// snapshot is dropped) afterwards.
func (la *LevelArenas) Commit() {
	if la == nil || la.cache == nil {
		return
	}
	la.cache.commitArenas(la.arenas)
}

// NewLevelArenas hands out n private cache arenas seeded with a read-only
// snapshot of the shared prefix cache, for one level of parallel counting.
// Returns nil when the counter has no cache — callers pass nil arenas
// through CountShardArena and counting simply runs uncached.
func (b *BitmapCounter) NewLevelArenas(n int) *LevelArenas {
	if b.cache == nil || n < 1 {
		return nil
	}
	snap := b.cache.snapshot()
	la := &LevelArenas{cache: b.cache, arenas: make([]*CacheArena, n)}
	share := b.cache.store.budget / int64(n)
	if share < 1 {
		share = 1
	}
	for i := range la.arenas {
		la.arenas[i] = &CacheArena{store: newCacheStore(share), snap: snap}
	}
	return la
}

// CountShardArena implements ArenaCounter: it is CountShard writing its
// tables into out (len(out) must equal len(sets); the caller owns the
// buffer and may reuse it across levels) and probing arena instead of the
// shared locked cache. A nil arena counts uncached.
func (b *BitmapCounter) CountShardArena(ctx context.Context, sets []itemset.Set, out []*contingency.Table, arena *CacheArena) error {
	if len(out) != len(sets) {
		return fmt.Errorf("counting: CountShardArena buffer length %d != %d sets", len(out), len(sets))
	}
	b.batches.Add(1)
	b.tablesBuilt.Add(int64(len(sets)))
	recordSetsCounted(b.engine, len(sets))
	done := ctx.Done()
	prof := shardProfFrom(ctx)
	for i, set := range sets {
		if cancelled(done) {
			return ctx.Err()
		}
		t, err := b.countOneArena(set, prof, arena)
		if err != nil {
			return err
		}
		out[i] = t
	}
	return nil
}
