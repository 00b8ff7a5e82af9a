package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"ccs/internal/core"
	"ccs/internal/counting"
	"ccs/internal/dataset"
	"ccs/internal/gen"
	"ccs/internal/obs"
	"ccs/internal/server"
	"ccs/internal/tidlist"
)

const (
	serveCallers = 2
	serveTx      = 20_000
	// serveWarmup is the number of passes over the mix each set-up sends,
	// enough to make a set-up last about a second.
	serveWarmup = 8
	// serveSettle is the number of passes over one caller's cycle sent
	// after the window, before retained_mb is read: 144 mines, more than
	// the server's ring of 128 recent traces holds.
	serveSettle = 8
)

// serveOp is one request type of the serve-mixed traffic.
type serveOp struct {
	name    string
	dataset string
	n       int   // occurrences per caller cycle
	q       query // mine requests
	upload  bool  // PUT re-upload of the dataset's bytes

	body, profBody []byte
	want           *answerDigest // oracle digest, mine requests; nil during warm-up
	baskets        int           // expected basket count, uploads
}

// serveMix is one caller's cycle of 20 requests over two datasets whose
// planted structure sits at fixed item ids (price = id + 1): "lattice"
// (gen.Lattice, blocks at ids 0-23, dense index) and "sparse" (gen.Sparse,
// blocks at ids 0-11, compressed index). Price constraints therefore pick
// the same structure under every seed. Seventeen requests are selective
// constrained mines whose lattice work is small next to the per-request
// index build, decode and encode; one is a deep unconstrained mine, which
// sets the p99; two re-upload the sparse dataset with the same bytes. The
// shares put the median of both all requests and mine requests inside the
// cluster of the most frequent type, not on a boundary between two types.
func serveMix() []*serveOp {
	lattice := core.Params{Alpha: strictAlpha, CellSupportFrac: 0.15, CTFraction: 0.25, MaxLevel: 4}
	deep := lattice
	deep.CellSupportFrac = 0.26
	sparse := core.Params{Alpha: strictAlpha, CellSupport: 50, CTFraction: 0.5, MaxLevel: 4}
	return []*serveOp{
		{name: "lattice-bms++", dataset: "lattice", n: 3, q: query{algo: "bms++", text: "max(price) <= 6", p: lattice}},
		{name: "lattice-bms**", dataset: "lattice", n: 3, q: query{algo: "bms**", text: "max(price) <= 6 & min(price) <= 2", push: true, p: lattice}},
		{name: "sparse-bms++", dataset: "sparse", n: 6, q: query{algo: "bms++", text: "max(price) <= 8", p: sparse}},
		{name: "sparse-bms++-wide", dataset: "sparse", n: 2, q: query{algo: "bms++", text: "max(price) <= 12", p: sparse}},
		{name: "sparse-bms**", dataset: "sparse", n: 3, q: query{algo: "bms**", text: "max(price) <= 8 & min(price) <= 2", push: true, p: sparse}},
		{name: "lattice-deep", dataset: "lattice", n: 1, q: query{algo: "bms", p: deep}},
		{name: "sparse-upload", dataset: "sparse", n: 2, upload: true},
	}
}

// serveEnv is the serve-mixed workload after set-up.
type serveEnv struct {
	srv   *server.Server
	raw   map[string][]byte
	dbs   map[string]*dataset.DB
	cycle [][]*serveOp // per caller
}

// serveSetup generates the two datasets, starts an in-process server
// configured as ccsserve's defaults except for serial mining, uploads the
// datasets with PUT and sends the mix serveWarmup times. Mines run serially
// because the two callers already occupy both CPUs of the reference
// machine; lattice-dense is the workload of the parallel engine.
func serveSetup(seed int64) (*env, error) {
	mix := serveMix()
	e := &env{callers: serveCallers, tail: 0.99, served: true, weights: map[string]int{}}
	for _, op := range mix {
		e.cycle += op.n
		if !op.upload {
			e.weights[op.name] = op.n
		}
	}
	se := &serveEnv{}
	e.op = se.op
	e.setupRep = func() error {
		// Every repetition starts from the same heap: the last one's
		// server and datasets are dropped and collected before the clock
		// starts.
		se.srv, se.raw, se.dbs = nil, nil, nil
		runtime.GC()
		start := time.Now()
		// 150 items keep the corpus's density (12.5 items a basket) clear
		// of the 1/16 dense/compressed cutoff that 200 items sit on, so the
		// auto backend picks dense under every seed.
		cfg := gen.DefaultLattice(serveTx, seed)
		cfg.NumItems = 150
		lattice, err := gen.Lattice(cfg)
		if err != nil {
			return err
		}
		sparse, err := gen.Sparse(gen.DefaultSparse(serveTx, seed))
		if err != nil {
			return err
		}
		e.genS = append(e.genS, since(start))
		se.srv = server.New(
			server.WithLogWriter(io.Discard),
			server.WithMineTimeout(time.Minute),
			server.WithCacheBytes(counting.DefaultCacheBytes),
			server.WithWorkers(1),
			server.WithBackend(tidlist.BackendAuto))
		se.raw = map[string][]byte{}
		se.dbs = map[string]*dataset.DB{}
		for name, db := range map[string]*dataset.DB{"lattice": lattice, "sparse": sparse} {
			var buf bytes.Buffer
			if err := dataset.Write(&buf, db); err != nil {
				return err
			}
			se.raw[name] = buf.Bytes()
			se.dbs[name] = db
			if err := se.put(name, db.NumTx()); err != nil {
				return fmt.Errorf("upload %s: %w", name, err)
			}
		}
		for _, op := range mix {
			if err := se.prepare(op); err != nil {
				return err
			}
		}
		// Warm-up replies are checked for status and form. Their answers
		// are checked in the window, where a mismatch is a failed op.
		for k := 0; k < serveWarmup; k++ {
			for _, op := range mix {
				for n := 0; n < op.n; n++ {
					if o := se.do(op, false); o.err != nil && !errors.Is(o.err, errMismatch) {
						return fmt.Errorf("warm-up %s: %w", op.name, o.err)
					}
				}
			}
		}
		e.setupS = append(e.setupS, since(start))
		return nil
	}
	if err := e.repeatSetup(setupBefore); err != nil {
		return nil, err
	}
	answers := 0
	for _, op := range mix {
		if op.upload {
			continue
		}
		want, err := oracle(se.dbs[op.dataset], op.q)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", op.name, err)
		}
		op.want = &want
		answers += want.sets
	}
	if answers == 0 {
		return nil, fmt.Errorf("no request type has answers; the check would be vacuous")
	}
	// Each caller walks its own fixed permutation of the cycle.
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < serveCallers; c++ {
		var seq []*serveOp
		for _, op := range mix {
			for k := 0; k < op.n; k++ {
				seq = append(seq, op)
			}
		}
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		se.cycle = append(se.cycle, seq)
	}
	e.release = func() error {
		// The server keeps rings of its most recent mine traces, whose
		// size depends on which requests came last. A fixed sequence of
		// more mines than the rings hold, the first caller's cycle
		// serveSettle times, leaves the same requests in them every run.
		// Like warm-up replies, these are checked for status and form.
		for k := 0; k < serveSettle; k++ {
			for _, op := range se.cycle[0] {
				if o := se.do(op, false); o.err != nil && !errors.Is(o.err, errMismatch) {
					return fmt.Errorf("settle %s: %w", op.name, o.err)
				}
			}
		}
		// The server holds its own decoded copies of the datasets; the
		// benchmark's generated ones and their bytes go.
		se.raw, se.dbs, se.cycle = nil, nil, nil
		for _, op := range mix {
			op.body = nil
		}
		return nil
	}
	return e, nil
}

// prepare encodes op's request bodies.
func (se *serveEnv) prepare(op *serveOp) error {
	if op.upload {
		op.body = se.raw[op.dataset]
		op.baskets = se.dbs[op.dataset].NumTx()
		return nil
	}
	req := server.MineRequest{
		Dataset:         op.dataset,
		Algo:            op.q.algo,
		Query:           op.q.text,
		Alpha:           op.q.p.Alpha,
		CellSupport:     op.q.p.CellSupport,
		CellSupportFrac: op.q.p.CellSupportFrac,
		CTFraction:      op.q.p.CTFraction,
		MaxLevel:        op.q.p.MaxLevel,
		Push:            op.q.push,
	}
	var err error
	if op.body, err = json.Marshal(req); err != nil {
		return err
	}
	req.Profile = true
	op.profBody, err = json.Marshal(req)
	return err
}

func (se *serveEnv) put(name string, baskets int) error {
	op := &serveOp{name: "upload-" + name, dataset: name, upload: true, body: se.raw[name], baskets: baskets}
	return se.do(op, false).err
}

// mineReply is the part of a server.MineResponse the check reads. The
// answers are digested while they are scanned and the named answers are
// skipped, so the check allocates little next to the request it checks.
type mineReply struct {
	Answers        answerDigest       `json:"answers"`
	Stats          core.Stats         `json:"stats"`
	Truncated      bool               `json:"truncated"`
	TruncatedCause string             `json:"truncated_cause"`
	Profile        *obs.ProfileRecord `json:"profile"`
	IndexBytes     int64              `json:"index_bytes"`
}

// do sends one request through the server's handler and checks the reply.
func (se *serveEnv) do(op *serveOp, profile bool) outcome {
	o := outcome{typ: op.name, kind: "mine"}
	var req *http.Request
	if op.upload {
		o.kind = "upload"
		req = httptest.NewRequest(http.MethodPut, "/v1/datasets/"+op.dataset, bytes.NewReader(op.body))
	} else {
		body := op.body
		if profile {
			body = op.profBody
		}
		req = httptest.NewRequest(http.MethodPost, "/v1/mine", bytes.NewReader(body))
	}
	rec := httptest.NewRecorder()
	o.start = time.Now()
	se.srv.ServeHTTP(rec, req)
	o.dur = time.Since(o.start)
	o.mine = o.dur
	if op.upload {
		var info server.DatasetInfo
		switch {
		case rec.Code != http.StatusCreated:
			o.err = fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
		case json.Unmarshal(rec.Body.Bytes(), &info) != nil:
			o.err = fmt.Errorf("undecodable reply %q", rec.Body.Bytes())
		case info.Baskets != op.baskets:
			o.err = fmt.Errorf("uploaded %d baskets, server reports %d", op.baskets, info.Baskets)
		}
		return o
	}
	var resp mineReply
	switch {
	case rec.Code != http.StatusOK:
		o.err = fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
	case json.Unmarshal(rec.Body.Bytes(), &resp) != nil:
		o.err = fmt.Errorf("undecodable reply %q", rec.Body.Bytes())
	case resp.Truncated:
		o.err = fmt.Errorf("truncated: %s", resp.TruncatedCause)
	case op.want != nil && resp.Answers != *op.want:
		o.err = fmt.Errorf("%w: digest %v, oracle %v", errMismatch, resp.Answers, *op.want)
	case profile && resp.Profile == nil:
		o.err = fmt.Errorf("profile requested but missing")
	}
	o.prof = resp.Profile
	o.stats = resp.Stats
	o.indexBytes = resp.IndexBytes
	return o
}

func (se *serveEnv) op(c, i int, ot *opTracer) outcome {
	op := se.cycle[c][i%len(se.cycle[c])]
	o := se.do(op, ot != nil)
	if ot == nil || o.err != nil {
		o.prof = nil
		return o
	}
	route := "/v1/mine"
	if op.upload {
		route = "/v1/datasets/{name}"
	}
	root := ot.root("server.Server.ServeHTTP "+route, op.name, o.start, o.start.Add(o.dur))
	// The layers below the handler are timed apart from the request,
	// through their own public calls on the same bytes and dataset.
	t := time.Now()
	if op.upload {
		if _, err := dataset.Read(bytes.NewReader(op.body)); err != nil {
			o.err = err
			return o
		}
		o.read = time.Since(t)
		ot.span("dataset.Read", 0, t, t.Add(o.read))
		return o
	}
	// The profile's own clock places the mine inside the request.
	wall := time.Duration(o.prof.WallSeconds * float64(time.Second))
	ot.phases(root, o.prof, o.prof.Start, o.prof.Start.Add(wall))
	dataset.BuildVerticalIndexBackend(se.dbs[op.dataset], tidlist.BackendAuto)
	o.indexBuild = time.Since(t)
	ot.span("dataset.BuildVerticalIndexBackend", 0, t, t.Add(o.indexBuild))
	return o
}
