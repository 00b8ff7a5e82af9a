package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ccs/internal/obs"
)

// span is one timed call at a layer boundary. Spans of one op share Op;
// Parent is the enclosing span's ID, 0 for a root.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent"`
	Op     int64              `json:"op"`
	Name   string             `json:"name"`
	Type   string             `json:"type,omitempty"` // the op's type within the mix, on root spans
	Start  float64            `json:"start_ms"`       // since the tracer started
	End    float64            `json:"end_ms"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	nextOp int64
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// opTracer records the spans of one op.
type opTracer struct {
	t  *tracer
	id int64
}

func (t *tracer) op() *opTracer {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return &opTracer{t: t, id: t.nextOp}
}

// span records a call that ran from start to end and returns its ID.
func (o *opTracer) span(name string, parent int64, start, end time.Time) int64 {
	return o.add(span{Name: name, Parent: parent, Start: ms(start.Sub(o.t.epoch)), End: ms(end.Sub(o.t.epoch))})
}

// root records the op's outermost call.
func (o *opTracer) root(name, typ string, start, end time.Time) int64 {
	return o.add(span{Name: name, Type: typ, Start: ms(start.Sub(o.t.epoch)), End: ms(end.Sub(o.t.epoch))})
}

// phases records a profiled mine as a span from start to end, with the
// profiler's phase split as its attributes.
func (o *opTracer) phases(parent int64, rec *obs.ProfileRecord, start, end time.Time) int64 {
	attrs := map[string]float64{}
	for name, p := range rec.Phases {
		attrs[name+"_ms"] = p.Seconds * 1000
	}
	return o.add(span{Name: "core.profile", Parent: parent, Start: ms(start.Sub(o.t.epoch)), End: ms(end.Sub(o.t.epoch)), Attrs: attrs})
}

func (o *opTracer) add(s span) int64 {
	o.t.mu.Lock()
	defer o.t.mu.Unlock()
	s.ID = int64(len(o.t.spans) + 1)
	s.Op = o.id
	o.t.spans = append(o.t.spans, s)
	return s.ID
}

// write saves the spans and the run's context as JSON
// and returns the file's path.
func (t *tracer) write(dir, workload string, seed int64, ctx map[string]interface{}) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	b, err := json.Marshal(map[string]interface{}{
		"context":    ctx,
		"spans":      t.spans,
		"span_count": len(t.spans),
	})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// layerMetrics turns a traced window into the per-layer metrics. Timings
// are per-op medians, fractions are shares of summed profiled wall time,
// and counts are exact per op type, averaged over the mix by its weights.
func layerMetrics(e *env, m measurement) map[string]metric {
	var traced, plain, uploads, indexMS, indexMB, readMS, overhead, countWork, skew []float64
	phaseMS := map[string][]float64{}
	phaseSum := map[string]float64{}
	var wallSum, reqSum, shards float64
	var hits, misses int64
	profiled := 0
	type counts struct{ candidates, cells, kept, pruned float64 }
	perType := map[string]counts{}
	for _, o := range m.outcomes {
		if o.err != nil {
			continue
		}
		if !o.traced {
			plain = append(plain, ms(o.dur))
			continue
		}
		traced = append(traced, ms(o.dur))
		if o.kind == "upload" {
			uploads = append(uploads, ms(o.dur))
		}
		if o.read > 0 {
			readMS = append(readMS, ms(o.read))
		}
		if o.indexBuild > 0 {
			indexMS = append(indexMS, ms(o.indexBuild))
		}
		if o.indexBytes > 0 {
			indexMB = append(indexMB, float64(o.indexBytes)/1e6)
		}
		rec := o.prof
		if rec == nil {
			continue
		}
		profiled++
		wall := rec.WallSeconds * 1000
		wallSum += wall
		for _, p := range []string{obs.PhaseCandgen, obs.PhaseCount, obs.PhaseStall, obs.PhasePrecheck, obs.PhaseEval, obs.PhaseOther} {
			v := rec.Phases[p].Seconds * 1000
			phaseMS[p] = append(phaseMS[p], v)
			phaseSum[p] += v
		}
		countWork = append(countWork, rec.CountWorkSeconds*1000)
		skew = append(skew, busySkew(rec.WorkerBusySeconds))
		hits += rec.CacheHits
		misses += rec.CacheMisses
		shards += float64(rec.Shards)
		if e.served {
			reqSum += ms(o.dur)
			overhead = append(overhead, ms(o.dur)-ms(o.indexBuild)-wall)
		}
		perType[o.typ] = counts{float64(o.stats.Candidates), float64(o.stats.CellsCounted), float64(rec.Kept), float64(o.stats.PrunedByAM)}
	}
	if len(readMS) == 0 {
		readMS = e.readMS
	}
	med := func(xs []float64) float64 { v, _ := percentile(xs, 0.5); return v }
	share := func(x, of float64) float64 {
		if of == 0 {
			return 0
		}
		return x / of
	}
	var w, cand, cells, kept, pruned float64
	for typ, n := range e.weights {
		c, ok := perType[typ]
		if !ok {
			continue
		}
		w += float64(n)
		cand += float64(n) * c.candidates
		cells += float64(n) * c.cells
		kept += float64(n) * c.kept
		pruned += float64(n) * c.pruned
	}
	overheadFrac := 0.0
	if p := med(plain); p > 0 {
		overheadFrac = med(traced)/p - 1
	}
	metrics := map[string]metric{
		"core.candgen_ms":              {med(phaseMS[obs.PhaseCandgen]), "ms"},
		"core.candgen_frac":            {share(phaseSum[obs.PhaseCandgen], wallSum), "ratio"},
		"core.count_ms":                {med(phaseMS[obs.PhaseCount]), "ms"},
		"core.count_frac":              {share(phaseSum[obs.PhaseCount], wallSum), "ratio"},
		"core.stall_ms":                {med(phaseMS[obs.PhaseStall]), "ms"},
		"core.stall_frac":              {share(phaseSum[obs.PhaseStall], wallSum), "ratio"},
		"core.precheck_ms":             {med(phaseMS[obs.PhasePrecheck]), "ms"},
		"core.evaluate_ms":             {med(phaseMS[obs.PhaseEval]), "ms"},
		"core.other_ms":                {med(phaseMS[obs.PhaseOther]), "ms"},
		"counting.count_work_ms":       {med(countWork), "ms"},
		"counting.cache_hit_rate":      {share(float64(hits), float64(hits+misses)), "ratio"},
		"counting.shards_per_op":       {share(shards, float64(profiled)), "count"},
		"counting.worker_busy_skew":    {med(skew), "ratio"},
		"dataset.index_build_ms":       {med(indexMS), "ms"},
		"dataset.index_mb":             {med(indexMB), "MB"},
		"dataset.read_ms":              {med(readMS), "ms"},
		"server.mine_wall_frac":        {share(wallSum, reqSum), "ratio"},
		"server.overhead_ms":           {med(overhead), "ms"},
		"server.upload_ms":             {med(uploads), "ms"},
		"core.candidates_per_op":       {share(cand, w), "count"},
		"core.cells_per_op":            {share(cells, w), "count"},
		"core.kept_per_candidate":      {share(kept, cand), "ratio"},
		"core.am_pruned_per_candidate": {share(pruned, cand), "ratio"},
		"gen.corpus_s":                 {med(e.genS), "s"},
		"trace.overhead_frac":          {overheadFrac, "ratio"},
	}
	return metrics
}

// busySkew is max over mean worker busy time, 0 for fewer than two workers.
func busySkew(busy []float64) float64 {
	if len(busy) < 2 {
		return 0
	}
	var sum, max float64
	for _, b := range busy {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 {
		return 0
	}
	return max / (sum / float64(len(busy)))
}
