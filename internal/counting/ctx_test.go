package counting

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"ccs/internal/itemset"
)

// batchOfPairs builds a large counting batch over the db's items.
func batchOfPairs(numItems int) []itemset.Set {
	var sets []itemset.Set
	for a := 0; a < numItems; a++ {
		for b := a + 1; b < numItems; b++ {
			sets = append(sets, itemset.New(itemset.Item(a), itemset.Item(b)))
		}
	}
	return sets
}

// TestCountersHonorPreCancelledContext checks every ContextCounter returns
// ctx.Err() for a context cancelled before the batch starts.
func TestCountersHonorPreCancelledContext(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	db := randomDB(r, 12, 200)
	path := writeTempDB(t, db)
	disk, err := NewDiskScanCounter(path)
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]ContextCounter{
		"scan":   NewScanCounter(db),
		"bitmap": NewBitmapCounter(db),
		"disk":   disk,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sets := batchOfPairs(12)
	for name, c := range counters {
		t.Run(name, func(t *testing.T) {
			if _, err := c.CountTablesContext(ctx, sets); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestCountersBackgroundContextMatchesPlain checks the context path with a
// background context produces the same tables as the plain path.
func TestCountersBackgroundContextMatchesPlain(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	db := randomDB(r, 10, 150)
	sets := batchOfPairs(10)
	plain, err := NewBitmapCounter(db).CountTables(sets)
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := NewScanCounter(db).CountTablesContext(context.Background(), sets)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i].String() != viaCtx[i].String() {
			t.Fatalf("table %d differs:\n%v\nvs\n%v", i, plain[i], viaCtx[i])
		}
	}
}

// TestParallelCancelMidBatch cancels the context while concurrent
// CountShard callers are mid-batch. Run under -race this also proves the
// cancellation path is free of data races. The cancel races the batch, so
// either outcome — clean completion or context.Canceled — is legal;
// anything else is not.
func TestParallelCancelMidBatch(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	db := randomDB(r, 40, 400)
	c := NewBitmapCounter(db)
	sets := batchOfPairs(40) // 780 sets: plenty of batch left to abandon
	for round := 0; round < 5; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			cancel()
		}()
		tables, err := countShards(ctx, c, sets, 4)
		wg.Wait()
		switch {
		case err == nil:
			if len(tables) != len(sets) {
				t.Fatalf("round %d: clean run returned %d tables for %d sets", round, len(tables), len(sets))
			}
		case errors.Is(err, context.Canceled):
			// expected: abandoned mid-batch
		default:
			t.Fatalf("round %d: err = %v, want nil or context.Canceled", round, err)
		}
		cancel()
	}
}

// TestDiskScanCancelMidScan cancels during the streaming pass and checks
// the scan returns the bare context error (so the core classifies it as
// truncation, not an I/O failure).
func TestDiskScanCancelMidScan(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	db := randomDB(r, 10, 5000) // enough transactions to cross checkEvery
	path := writeTempDB(t, db)
	c, err := NewDiskScanCounter(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.CountTablesContext(ctx, batchOfPairs(10)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
