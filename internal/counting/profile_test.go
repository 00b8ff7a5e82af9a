package counting

import (
	"context"
	"math/rand"
	"testing"

	"ccs/internal/itemset"
)

// TestProfilerOffZeroAllocs is the overhead guard: with no ShardProf on
// the context, the instrumented counting path must allocate exactly what
// the plain path allocates on the 3-item kernel — the disabled profiler is
// free.
func TestProfilerOffZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	db := randomDB(r, 50, 5000)
	sets := []itemset.Set{itemset.New(1, 2, 3)}
	ctx := context.Background()

	counters := []struct {
		name  string
		plain func() error
		inst  func() error
	}{
		{
			name: "bitmap",
			plain: func() error {
				_, err := NewBitmapCounter(db).CountTables(sets)
				return err
			},
			inst: func() error {
				_, err := NewBitmapCounter(db).CountTablesContext(ctx, sets)
				return err
			},
		},
	}
	// The cached counter is stateful (its cache warms), so it gets two
	// long-lived instances driven identically.
	plainCC := NewCachedBitmapCounter(db, DefaultCacheBytes)
	defer plainCC.ReleaseCache()
	instCC := NewCachedBitmapCounter(db, DefaultCacheBytes)
	defer instCC.ReleaseCache()
	counters = append(counters, struct {
		name  string
		plain func() error
		inst  func() error
	}{
		name: "cached-bitmap",
		plain: func() error {
			_, err := plainCC.CountTables(sets)
			return err
		},
		inst: func() error {
			_, err := instCC.CountTablesContext(ctx, sets)
			return err
		},
	})

	for _, c := range counters {
		// warm once so both sides measure the steady state
		if err := c.plain(); err != nil {
			t.Fatal(err)
		}
		if err := c.inst(); err != nil {
			t.Fatal(err)
		}
		plain := testing.AllocsPerRun(50, func() {
			if err := c.plain(); err != nil {
				t.Fatal(err)
			}
		})
		inst := testing.AllocsPerRun(50, func() {
			if err := c.inst(); err != nil {
				t.Fatal(err)
			}
		})
		if inst > plain {
			t.Errorf("%s: profiler-off context path allocates %.1f/op, plain path %.1f/op — want 0 extra",
				c.name, inst, plain)
		}
	}
}

// TestShardProfCollects checks an attached ShardProf sees every set, the
// cells actually built, and the prefix-cache outcomes.
func TestShardProfCollects(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	db := randomDB(r, 30, 500)
	batch := prefixBatch(8, 3) // sibling runs, so the cache gets hits

	cc := NewCachedBitmapCounter(db, DefaultCacheBytes)
	defer cc.ReleaseCache()
	var prof ShardProf
	ctx := WithShardProf(context.Background(), &prof)
	tables, err := cc.CountTablesContext(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(batch) {
		t.Fatalf("got %d tables for %d sets", len(tables), len(batch))
	}
	if got := prof.Sets.Load(); got != int64(len(batch)) {
		t.Errorf("prof.Sets = %d, want %d", got, len(batch))
	}
	if got, want := prof.Cells.Load(), int64(len(batch))*8; got != want {
		t.Errorf("prof.Cells = %d, want %d (3-item sets build 8 cells each)", got, want)
	}
	if prof.CacheHits.Load()+prof.CacheMisses.Load() == 0 {
		t.Error("cached counter recorded no cache lookups")
	}
	if prof.CacheHits.Load() == 0 {
		t.Error("prefix batch recorded no cache hits")
	}

	// nil prof: WithShardProf must return the context unchanged
	if got := WithShardProf(ctx, nil); got != ctx {
		t.Error("WithShardProf(ctx, nil) wrapped the context")
	}
	if shardProfFrom(context.Background()) != nil {
		t.Error("shardProfFrom on a bare context returned a profile")
	}
}

// TestShardProfConcurrentShards checks concurrent CountShard callers
// sharing one context aggregate into its one ShardProf without losing
// counts (atomics, exercised under -race by the suite).
func TestShardProfConcurrentShards(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	db := randomDB(r, 30, 2000)
	batch := prefixBatch(10, 3)

	var prof ShardProf
	ctx := WithShardProf(context.Background(), &prof)
	tables, err := countShards(ctx, NewBitmapCounter(db), batch, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(batch) {
		t.Fatalf("got %d tables for %d sets", len(tables), len(batch))
	}
	if got := prof.Sets.Load(); got != int64(len(batch)) {
		t.Errorf("prof.Sets = %d, want %d", got, len(batch))
	}
	if got, want := prof.Cells.Load(), int64(len(batch))*8; got != want {
		t.Errorf("prof.Cells = %d, want %d", got, want)
	}
}
