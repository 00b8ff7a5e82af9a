package counting

import (
	"context"
	"sync/atomic"
)

// ShardProf is the per-shard profiling arena the mining core's profiler
// (internal/obs Profile) threads through a counting call: the bitmap-family
// counters tally into it how many sets and contingency cells a shard
// counted and how its prefix-cache lookups fared, including the wall time
// spent inside cache get/put (the lock-contention component of counting).
//
// Fields are atomics so concurrent CountShard callers may share one
// context, and with it one ShardProf; the level engine gives each shard
// its own, where the atomics cost a few ns per set.
// A nil *ShardProf disables collection — the counters take a pointer per
// batch from the context (one allocation-free Value lookup) and guard every
// tally on it, so the disabled path does no extra work and no extra
// allocation.
type ShardProf struct {
	Sets        atomic.Int64 // itemsets counted
	Cells       atomic.Int64 // contingency cells produced (2^k per k-set)
	CacheHits   atomic.Int64 // prefix-cache lookups served
	CacheMisses atomic.Int64 // prefix-cache lookups that fell through
	CacheNanos  atomic.Int64 // wall nanoseconds inside cache get/put
}

// shardProfKey is the context key carrying a *ShardProf.
type shardProfKey struct{}

// WithShardProf returns a context that directs the bitmap-family counters
// to tally per-shard profiling data into prof. Passing a nil prof returns
// ctx unchanged.
func WithShardProf(ctx context.Context, prof *ShardProf) context.Context {
	if prof == nil {
		return ctx
	}
	return context.WithValue(ctx, shardProfKey{}, prof)
}

// shardProfFrom extracts the profiling arena, nil when none is attached.
func shardProfFrom(ctx context.Context) *ShardProf {
	prof, _ := ctx.Value(shardProfKey{}).(*ShardProf)
	return prof
}
