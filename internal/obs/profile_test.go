package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestProfileNilSafe checks every method on a nil Profile (and the nil
// LevelProf it hands out) no-ops — the disabled-profiler contract.
func TestProfileNilSafe(t *testing.T) {
	var p *Profile
	if p.Enabled() {
		t.Error("nil profile reports enabled")
	}
	p.SetWorkers(8)
	p.AddPhase(PhaseCandgen, time.Second, 1, 1)
	p.AddWorker(3, time.Second, 2)
	p.Finish()
	lp := p.StartLevel("levelwise", 2, 100)
	if lp != nil {
		t.Fatal("nil profile returned a non-nil level")
	}
	lp.AddPart(PhaseCount, time.Second, 64)
	lp.AddShard(ShardStat{Worker: 1})
	lp.Finish(5, 10, time.Second)
	if rec := p.Record(); rec != nil {
		t.Errorf("nil profile Record() = %+v, want nil", rec)
	}
}

// TestProfileRecordMath checks the core accounting invariant: named phase
// totals plus the computed "other" residual sum to the wall clock, and the
// per-level parts roll up into the phase map.
func TestProfileRecordMath(t *testing.T) {
	p := NewProfile("demo/bms")
	p.SetWorkers(4)
	p.AddPhase(PhaseCandgen, 10*time.Millisecond, 2048, 0)

	lp := p.StartLevel("levelwise", 2, 100)
	lp.AddPart(PhasePrecheck, 1*time.Millisecond, 0)
	lp.AddPart(PhaseStall, 3*time.Millisecond, 0)
	lp.AddPart(PhaseEval, 6*time.Millisecond, 512)
	lp.AddShard(ShardStat{Worker: 0, Sets: 50, Cells: 200, Seconds: 0.004, CacheHits: 10, CacheMisses: 40})
	lp.AddShard(ShardStat{Worker: 1, Sets: 50, Cells: 200, Seconds: 0.005, CacheHits: 30, CacheMisses: 10})
	lp.Finish(80, 400, 10*time.Millisecond)
	p.AddWorker(0, 4*time.Millisecond, 1)
	p.AddWorker(1, 5*time.Millisecond, 1)
	p.Finish()

	rec := p.Record()
	if rec.Name != "demo/bms" || rec.Workers != 4 {
		t.Errorf("header wrong: name=%q workers=%d", rec.Name, rec.Workers)
	}
	if rec.WallSeconds <= 0 {
		t.Fatalf("wall = %g, want > 0", rec.WallSeconds)
	}
	// Accounting invariant: when the residual "other" phase is present the
	// phases sum to the wall exactly; it is absent only when the named
	// phases already cover (or exceed, as with these synthetic durations)
	// the wall clock.
	var sum float64
	for _, ph := range rec.Phases {
		sum += ph.Seconds
	}
	if _, hasOther := rec.Phases[PhaseOther]; hasOther {
		if diff := rec.WallSeconds - sum; diff < -1e-9 || diff > 1e-9 {
			t.Errorf("phases sum to %g, wall is %g", sum, rec.WallSeconds)
		}
	} else if sum < rec.WallSeconds-1e-9 {
		t.Errorf("no other phase but named phases sum to %g < wall %g", sum, rec.WallSeconds)
	}
	if got := rec.Phases[PhaseCandgen]; got.Seconds != 0.010 || got.AllocBytes != 2048 {
		t.Errorf("candgen phase = %+v", got)
	}
	if got := rec.Phases[PhaseStall].Seconds; got != 0.003 {
		t.Errorf("stall phase = %g, want 0.003", got)
	}
	if got := rec.Phases[PhaseEval].Seconds; got != 0.006 {
		t.Errorf("eval phase = %g, want 0.006", got)
	}
	// level alloc and cells are attributed to the count phase
	if got := rec.Phases[PhaseCount]; got.AllocBytes != 512 || got.Cells != 400 {
		t.Errorf("count phase carries alloc=%d cells=%d, want 512/400", got.AllocBytes, got.Cells)
	}
	if rec.Candidates != 100 || rec.Kept != 80 || rec.Cells != 400 || rec.Shards != 2 {
		t.Errorf("totals wrong: %+v", rec)
	}
	if got := rec.CountWorkSeconds; got < 0.009-1e-12 || got > 0.009+1e-12 {
		t.Errorf("count work = %g, want 0.009", got)
	}
	if rec.CacheHits != 40 || rec.CacheMisses != 50 {
		t.Errorf("cache totals = %d/%d, want 40/50", rec.CacheHits, rec.CacheMisses)
	}
	if got := rec.CacheHitRate(); got < 0.444 || got > 0.445 {
		t.Errorf("cache hit rate = %g, want 4/9", got)
	}
	if len(rec.WorkerBusySeconds) != 2 || rec.WorkerBusySeconds[1] != 0.005 {
		t.Errorf("worker busy = %v", rec.WorkerBusySeconds)
	}
	if len(rec.WorkerShards) != 2 || rec.WorkerShards[0] != 1 {
		t.Errorf("worker shards = %v", rec.WorkerShards)
	}
	if len(rec.Levels) != 1 {
		t.Fatalf("levels = %d, want 1", len(rec.Levels))
	}
	lr := rec.Levels[0]
	if lr.Phase != "levelwise" || lr.Level != 2 || lr.Candidates != 100 || lr.Kept != 80 {
		t.Errorf("level record wrong: %+v", lr)
	}
	if len(lr.Shards) != 2 || lr.Shards[0].Worker != 0 || lr.Shards[1].Worker != 1 {
		t.Errorf("level shards wrong: %+v", lr.Shards)
	}
}

// TestProfileOtherResidual checks unattributed wall time surfaces as the
// computed "other" phase and closes the accounting gap exactly.
func TestProfileOtherResidual(t *testing.T) {
	p := NewProfile("residual")
	p.AddPhase(PhaseCandgen, time.Millisecond, 0, 0)
	time.Sleep(5 * time.Millisecond) // real wall time nothing claims
	p.Finish()
	rec := p.Record()
	other, ok := rec.Phases[PhaseOther]
	if !ok || other.Seconds <= 0 {
		t.Fatalf("other phase missing or empty: %+v", rec.Phases)
	}
	sum := rec.Phases[PhaseCandgen].Seconds + other.Seconds
	if diff := rec.WallSeconds - sum; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("candgen + other = %g, wall = %g", sum, rec.WallSeconds)
	}
}

// TestProfileRecordJSONShape checks the wire schema round-trips and the
// empty-phase entries are elided.
func TestProfileRecordJSONShape(t *testing.T) {
	p := NewProfile("x")
	p.AddPhase(PhaseCandgen, time.Millisecond, 0, 0)
	p.Finish()
	raw, err := json.Marshal(p.Record())
	if err != nil {
		t.Fatal(err)
	}
	var back ProfileRecord
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("record does not round-trip: %v\n%s", err, raw)
	}
	if back.Phases[PhaseCandgen].Seconds != 0.001 {
		t.Errorf("round-tripped candgen = %+v", back.Phases[PhaseCandgen])
	}
	if _, ok := back.Phases[PhaseCount]; ok {
		t.Error("empty count phase serialized")
	}
}

// TestProfileConcurrent hammers one Profile from 8 goroutines — the -race
// suite's target for the accumulator locking.
func TestProfileConcurrent(t *testing.T) {
	p := NewProfile("hammer")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p.AddPhase(PhaseCandgen, time.Microsecond, 1, 1)
				p.AddWorker(w, time.Microsecond, 1)
				lp := p.StartLevel("levelwise", i, 1)
				lp.AddPart(PhaseEval, time.Microsecond, 0)
				lp.Finish(1, 0, time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	p.Finish()
	rec := p.Record()
	if got := rec.Phases[PhaseCandgen].Cells; got != 8*500 {
		t.Errorf("candgen cells = %d, want %d", got, 8*500)
	}
	if len(rec.Levels) != 8*500 {
		t.Errorf("levels = %d, want %d", len(rec.Levels), 8*500)
	}
}

// TestProfileRingEviction checks capacity, newest-first order, and the
// never-nil snapshot contract.
func TestProfileRingEviction(t *testing.T) {
	r := NewProfileRing(3)
	if got := r.Snapshot(); got == nil || len(got) != 0 {
		t.Errorf("empty ring snapshot = %v, want non-nil empty", got)
	}
	for i := 0; i < 5; i++ {
		p := NewProfile(string(rune('a' + i)))
		p.Finish()
		r.Add(p.Record())
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring holds %d, want 3", len(snap))
	}
	for j, want := range []string{"e", "d", "c"} {
		if snap[j].Name != want {
			t.Errorf("snapshot[%d] = %q, want %q", j, snap[j].Name, want)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var recs []ProfileRecord
	if err := json.Unmarshal(buf.Bytes(), &recs); err != nil {
		t.Fatalf("WriteJSON does not parse: %v", err)
	}
	if len(recs) != 3 || recs[0].Name != "e" {
		t.Errorf("WriteJSON payload wrong: %+v", recs)
	}
}

// TestProfileRingNilSafe checks the nil ring serves [] and drops Adds.
func TestProfileRingNilSafe(t *testing.T) {
	var r *ProfileRing
	r.Add(&ProfileRecord{Name: "x"})
	if got := r.Snapshot(); got == nil || len(got) != 0 {
		t.Errorf("nil ring snapshot = %v, want non-nil empty", got)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Errorf("nil ring WriteJSON = %q, want []", got)
	}
}
