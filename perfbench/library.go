package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"ccs/internal/constraint"
	"ccs/internal/core"
	"ccs/internal/counting"
	"ccs/internal/dataset"
	"ccs/internal/gen"
	"ccs/internal/obs"
	"ccs/internal/tidlist"
)

const (
	// strictAlpha puts the chi-squared cutoff (about 28) far above the
	// faint associations that basket-size mixing induces between
	// independent items, so the same corpus structure yields the same
	// lattice under every seed: at 0.95 the candidate count moves by a
	// sixth from seed to seed, at this level by well under one percent.
	strictAlpha = 0.9999999
	latticeTx   = 100_000
	sparseTx    = 20_000
	sparseSupp  = 100
)

// library describes a workload that calls the mining packages directly.
type library struct {
	corpus func(seed int64) (*dataset.DB, error)
	q      query
	// backend is the TID-list representation of the vertical index.
	backend tidlist.Backend
	// perOp builds a fresh prefix-cached counter inside every op, as
	// /v1/mine does; otherwise one plain counter is built during set-up.
	perOp   bool
	workers int
	// warmup is the number of ops each set-up runs before the window
	// opens, enough to make a set-up last about a second.
	warmup int
}

// latticeSetup: the large-lattice corpus on the dense backend, one BMS mine
// per op at the service's default worker count over a fresh prefix-cached
// counter. Counting, the prefix cache and the shard engine dominate.
func latticeSetup(seed int64) (*env, error) {
	return library{
		corpus: func(seed int64) (*dataset.DB, error) {
			return gen.Lattice(gen.DefaultLattice(latticeTx, seed))
		},
		q:       query{algo: "bms", p: core.Params{Alpha: strictAlpha, CellSupportFrac: 0.2, CTFraction: 0.25, MaxLevel: 6}},
		backend: tidlist.BackendDense,
		perOp:   true,
		workers: runtime.GOMAXPROCS(0),
		warmup:  8,
	}.setup(seed)
}

// sparseSetup: the sparse long-tail corpus on the auto backend (which
// resolves to compressed), one serial BMS per op over a counter built once.
// Pairs over the head are counted and the triples they would extend to are
// generated, so candidate generation dominates and counting is small.
func sparseSetup(seed int64) (*env, error) {
	return library{
		corpus: func(seed int64) (*dataset.DB, error) {
			return gen.Sparse(gen.DefaultSparse(sparseTx, seed))
		},
		q:       query{algo: "bms", p: core.Params{Alpha: strictAlpha, CellSupport: sparseSupp, CTFraction: 0.5, MaxLevel: 2}},
		backend: tidlist.BackendAuto,
		workers: 1,
		warmup:  12,
	}.setup(seed)
}

func (l library) setup(seed int64) (*env, error) {
	e := &env{callers: 1, cycle: 1, tail: 0.90, weights: map[string]int{l.q.algo: 1}}
	conj, err := l.q.constraints()
	if err != nil {
		return nil, err
	}
	le := &libEnv{lib: l, conj: conj}
	e.op = le.op
	e.setupRep = func() error {
		// Every repetition starts from the same heap: the last one's
		// state is dropped and collected before the clock starts.
		le.db, le.counter = nil, nil
		runtime.GC()
		start := time.Now()
		src, err := l.corpus(seed)
		if err != nil {
			return err
		}
		e.genS = append(e.genS, since(start))
		var buf bytes.Buffer
		if err := dataset.Write(&buf, src); err != nil {
			return err
		}
		t := time.Now()
		if le.db, err = dataset.Read(&buf); err != nil {
			return err
		}
		e.readMS = append(e.readMS, ms(time.Since(t)))
		if !l.perOp {
			le.counter = counting.NewBitmapCounterBackend(le.db, l.backend)
		}
		for k := 0; k < l.warmup; k++ {
			if _, err := le.mine(false); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		e.setupS = append(e.setupS, since(start))
		return nil
	}
	if err := e.repeatSetup(setupBefore); err != nil {
		return nil, err
	}
	if le.want, err = oracle(le.db, l.q); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if le.want.sets == 0 {
		return nil, fmt.Errorf("oracle found no answers; the check would be vacuous")
	}
	return e, nil
}

// libEnv is a library workload's state after set-up.
type libEnv struct {
	lib     library
	db      *dataset.DB
	conj    *constraint.Conjunction
	counter *counting.BitmapCounter // nil when every op builds its own
	want    answerDigest
}

// libRun is one op's timings and results.
type libRun struct {
	start, built, created, mined, end time.Time
	res                               *core.Result
	prof                              *obs.Profile
	indexBytes                        int64
}

// mine runs one op: build the counter if the workload builds one per op,
// create a Miner, mine, and release the counter's cache. A profiled op
// starts its profile once the counter is built, as /v1/mine does, so the
// profile covers the mine alone.
func (le *libEnv) mine(profile bool) (libRun, error) {
	var r libRun
	r.start = time.Now()
	cc := le.counter
	if cc == nil {
		cc = counting.NewCachedBitmapCounterBackend(le.db, counting.DefaultCacheBytes, le.lib.backend)
	}
	r.built = time.Now()
	opts := []core.Option{core.WithWorkers(le.lib.workers), core.WithCounter(cc)}
	if profile {
		r.prof = obs.NewProfile(le.lib.q.algo)
		opts = append(opts, core.WithProfile(r.prof))
	}
	m, err := core.New(le.db, le.lib.q.p, opts...)
	r.created = time.Now()
	if err == nil {
		r.res, err = le.lib.q.mineParsed(m, le.conj)
	}
	r.mined = time.Now()
	r.prof.Finish()
	if le.counter == nil {
		cc.ReleaseCache()
	}
	r.end = time.Now()
	r.indexBytes = cc.IndexBytes()
	return r, err
}

func (le *libEnv) op(_, _ int, ot *opTracer) outcome {
	r, err := le.mine(ot != nil)
	o := outcome{typ: le.lib.q.algo, kind: "mine", dur: r.end.Sub(r.start), mine: r.mined.Sub(r.built), err: err}
	if err == nil {
		o.err = check(r.res, le.want)
	}
	if ot == nil || err != nil {
		return o
	}
	o.prof = r.prof.Record()
	o.stats = r.res.Stats
	o.indexBytes = r.indexBytes
	root := ot.root("op", le.lib.q.algo, r.start, r.end)
	if le.counter == nil {
		ot.span("counting.NewCachedBitmapCounterBackend", root, r.start, r.built)
	}
	ot.span("core.New", root, r.built, r.created)
	mined := ot.span("core.Miner "+le.lib.q.algo, root, r.created, r.mined)
	ot.phases(mined, o.prof, r.created, r.mined)
	// The index build is timed again apart from the op, through its own
	// public call, so its share is known without instrumenting the counter.
	t := time.Now()
	dataset.BuildVerticalIndexBackend(le.db, le.lib.backend)
	o.indexBuild = time.Since(t)
	ot.span("dataset.BuildVerticalIndexBackend", 0, t, t.Add(o.indexBuild))
	return o
}
