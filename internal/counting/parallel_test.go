package counting

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"ccs/internal/contingency"
	"ccs/internal/itemset"
)

// countShards counts sets the way the mining core's level engine drives a
// ShardCounter: the batch is cut into up to workers contiguous shards and
// every shard is counted by its own goroutine through CountShard, all in
// flight at once. It returns the first shard error.
func countShards(ctx context.Context, c ShardCounter, sets []itemset.Set, workers int) ([]*contingency.Table, error) {
	out := make([]*contingency.Table, len(sets))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*len(sets)/workers, (w+1)*len(sets)/workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			ts, err := c.CountShard(ctx, sets[lo:hi])
			if err != nil {
				errs[w] = err
				return
			}
			copy(out[lo:hi], ts)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestParallelEqualsSerial checks that concurrent CountShard calls on
// disjoint shards of one batch build exactly the tables of one serial
// pass, at several shard counts.
func TestParallelEqualsSerial(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	db := randomDB(r, 12, 200)
	serial := NewBitmapCounter(db)
	par := NewBitmapCounter(db)
	for _, workers := range []int{1, 2, 4, 8} {
		var sets []itemset.Set
		for i := 0; i < 40; i++ {
			k := r.Intn(4) + 1
			var items []itemset.Item
			for len(itemset.New(items...)) < k {
				items = append(items, itemset.Item(r.Intn(12)))
			}
			sets = append(sets, itemset.New(items...))
		}
		a, err := serial.CountTables(sets)
		if err != nil {
			t.Fatal(err)
		}
		b, err := countShards(context.Background(), par, sets, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sets {
			if !tablesEqual(a[i], b[i]) {
				t.Fatalf("workers=%d set %v: %v vs %v", workers, sets[i], a[i].Cells, b[i].Cells)
			}
		}
	}
}

// TestParallelErrorPropagates checks a shard that fails (an oversized set)
// surfaces its error while sibling shards count concurrently.
func TestParallelErrorPropagates(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	db := randomDB(r, 30, 20)
	big := make([]itemset.Item, 21)
	for i := range big {
		big[i] = itemset.Item(i)
	}
	sets := []itemset.Set{itemset.New(0, 1), itemset.New(big...), itemset.New(2, 3)}
	if _, err := countShards(context.Background(), NewBitmapCounter(db), sets, 3); err == nil {
		t.Fatalf("oversized set did not error")
	}
}

// TestParallelStats checks the work counters stay exact under concurrent
// CountShard callers: one batch per shard, one table per set.
func TestParallelStats(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	db := randomDB(r, 8, 20)
	c := NewBitmapCounter(db)
	sets := batchOfPairs(8) // 28 sets
	if _, err := countShards(context.Background(), c, sets, 4); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Batches != 4 || st.TablesBuilt != len(sets) {
		t.Fatalf("stats = %+v, want 4 batches and %d tables", st, len(sets))
	}
}
