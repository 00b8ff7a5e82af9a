package counting

import (
	"math/rand"
	"testing"
	"time"

	"ccs/internal/dataset"
	"ccs/internal/obs"
)

// TestSetsCountedMetric checks each engine charges its batches to its own
// series of ccs_sets_counted_total.
func TestSetsCountedMetric(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	db := randomDB(r, 10, 200)
	sets := batchOfPairs(10)
	reg := obs.Default()

	engines := map[string]Counter{
		"scan":   NewScanCounter(db),
		"bitmap": NewBitmapCounter(db),
	}
	path := writeTempDB(t, db)
	disk, err := NewDiskScanCounter(path)
	if err != nil {
		t.Fatal(err)
	}
	engines["disk"] = disk

	for engine, cnt := range engines {
		series := reg.CounterVec(MetricSetsCountedTotal, "", "engine").With(engine)
		before := series.Value()
		if _, err := cnt.CountTables(sets); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if got, want := series.Value()-before, int64(len(sets)); got != want {
			t.Errorf("%s: sets counted advanced %d, want %d", engine, got, want)
		}
	}
}

// TestDiskScanMetrics checks a faulty-but-surviving scan records bytes
// read, retries performed, and faults survived.
func TestDiskScanMetrics(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	db := randomDB(r, 12, 300)
	reg := obs.Default()
	bytesC := reg.Counter(MetricDiskScanBytesTotal, "")
	retriesC := reg.Counter(MetricDiskScanRetriesTotal, "")
	faultsC := reg.Counter(MetricTransientFaultsTotal, "")

	b0, r0, f0 := bytesC.Value(), retriesC.Value(), faultsC.Value()
	// every read faults until the 2-fault budget is spent, so each scan is
	// guaranteed to retry exactly twice and survive
	plan := dataset.FaultPlan{TransientEvery: 1, MaxTransient: 2, ShortReadMax: 512}
	faulty, err := faultCounterFor(t, db, plan, RetryPolicy{MaxRetries: 2, Backoff: time.Microsecond})
	if err != nil {
		t.Fatalf("construction scan did not survive its faults: %v", err)
	}
	if _, err := faulty.CountTables(batchOfPairs(12)); err != nil {
		t.Fatal(err)
	}
	if bytesC.Value() <= b0 {
		t.Error("diskscan bytes counter did not advance")
	}
	if retriesC.Value() <= r0 {
		t.Error("diskscan retries counter did not advance despite injected faults")
	}
	if faultsC.Value() <= f0 {
		t.Error("transient faults survived counter did not advance")
	}
}
