// Package server exposes the miner as an HTTP JSON service — the
// integration-with-database-systems deployment the paper's introduction
// motivates (cf. Sarawagi et al., SIGMOD'98). Datasets are uploaded in the
// binary format or generated server-side; constrained correlation queries
// run against them by name.
//
// Endpoints:
//
//	GET  /healthz                   liveness probe
//	GET  /v1/datasets               list loaded datasets with statistics
//	PUT  /v1/datasets/{name}        upload a binary dataset
//	POST /v1/datasets/{name}:generate  generate synthetic data (JSON spec)
//	GET  /v1/datasets/{name}        statistics of one dataset
//	DELETE /v1/datasets/{name}      unload
//	POST /v1/mine                   run a correlation query (JSON)
//	POST /v1/frequent               run a constrained frequent-set query (JSON)
//	POST /v1/explain                classify a query and recommend an algorithm
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccs/internal/constraint"
	"ccs/internal/core"
	"ccs/internal/counting"
	"ccs/internal/cql"
	"ccs/internal/dataset"
	"ccs/internal/gen"
	"ccs/internal/itemset"
	"ccs/internal/obs"
	"ccs/internal/tidlist"
)

// maxUploadBytes bounds dataset uploads (64 MiB).
const maxUploadBytes = 64 << 20

// traceCap bounds the server's in-memory ring of finished mine traces.
const traceCap = 128

// profileCap bounds the server's in-memory ring of finished mine profiles
// (/debug/mines). Only mines that asked for profiling enter the ring.
const profileCap = 64

// Server is the HTTP handler with its dataset registry. Create with New;
// it is safe for concurrent use.
type Server struct {
	mu       sync.RWMutex
	datasets map[string]*dataset.DB
	mux      *http.ServeMux
	handler  http.Handler

	mineTimeout time.Duration
	cacheBytes  int64
	workers     int
	backend     tidlist.Backend
	logger      *obs.Logger
	tracer      *obs.Tracer
	profiles    *obs.ProfileRing
	reqSeq      atomic.Int64

	// Overload protection (DESIGN.md §12): the bounded admission gate,
	// the per-tenant quota table, and the load monitor driving staged
	// degradation. All nil when the corresponding option is absent.
	admCfg AdmissionConfig
	adm    *admission
	quotas *quotaTable
	shed   *loadMonitor
}

// Option configures a Server.
type Option func(*Server)

// WithMineTimeout bounds the wall-clock time of every mining request
// (/v1/mine, /v1/frequent, /v1/explain, :generate) via a request-context
// deadline. A mine request that exceeds it returns 200 with
// truncated=true and the completed levels; 0 (the default) means no
// server-side limit.
func WithMineTimeout(d time.Duration) Option {
	return func(s *Server) { s.mineTimeout = d }
}

// WithCacheBytes sets the default byte budget of the per-request
// prefix-intersection cache used by /v1/mine (ccsserve -cache-bytes). 0
// (the default) counts without a cache; a request can override either way
// with its cache_bytes field. Cache effectiveness is observable as the
// ccs_prefix_cache_* series on the ops listener's /metrics.
func WithCacheBytes(n int64) Option {
	return func(s *Server) { s.cacheBytes = n }
}

// WithWorkers sets the default worker count of the mining level engine for
// /v1/mine requests (ccsserve -workers): 0 means GOMAXPROCS, 1 serial. A
// request can override it either way with its workers field. Workers only
// changes wall-clock time, never the mined answers.
func WithWorkers(n int) Option {
	return func(s *Server) { s.workers = n }
}

// WithBackend sets the default TID-list representation of /v1/mine's
// vertical index (ccsserve -backend): auto (the default) chooses by
// dataset density, dense and compressed pin it. A request can override
// with its backend field. The backend changes memory and speed only,
// never the mined answers.
func WithBackend(b tidlist.Backend) Option {
	return func(s *Server) { s.backend = b }
}

// WithLogWriter routes the server's structured log — one JSON object per
// line: request outcomes, panic recoveries, encode failures — to w
// (default: the standard log package's writer).
func WithLogWriter(w io.Writer) Option {
	return func(s *Server) { s.logger = obs.NewLogger(w) }
}

// WithAdmission bounds concurrent mining work (ccsserve -max-inflight,
// -queue-depth, -queue-wait): cfg.MaxInFlight requests run at once, up to
// cfg.QueueDepth wait in a bounded queue for at most cfg.MaxQueueWait (or
// their own deadline, whichever is nearer), and everything else receives
// a structured 429 with Retry-After. Enabling admission also arms the
// load monitor, which degrades admitted requests in stages (smaller
// prefix caches, serial mining, tighter deadlines, priority-only
// admission) instead of letting the process collapse. A zero MaxInFlight
// leaves the layer off.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(s *Server) { s.admCfg = cfg }
}

// WithQuotas installs per-tenant rate limits and work budgets (ccsserve
// -tenant-quotas). Tenants are resolved from the X-CCS-Tenant header or a
// mapped X-API-Key; unidentified traffic shares the "default" envelope.
// Work budgets are charged in candidates and contingency cells after each
// mine — an expensive mine counts for more — and compose with core.Budget
// so a mine is truncated at the tenant's remaining balance rather than
// overdrawing it.
func WithQuotas(cfg QuotaConfig) Option {
	return func(s *Server) { s.quotas = newQuotaTable(cfg) }
}

// New returns a ready handler. Every route is instrumented (request
// counters, latency histogram, in-flight gauge, one structured log line
// per request) and wrapped in panic recovery — a panicking handler logs a
// stack trace and answers 500, and the process survives. The mining
// routes (/v1/mine, /v1/frequent, /v1/explain, and the :generate action)
// additionally carry the configured per-request deadline on their context.
func New(opts ...Option) *Server {
	s := &Server{
		datasets: make(map[string]*dataset.DB),
		mux:      http.NewServeMux(),
		tracer:   obs.NewTracer(traceCap),
		profiles: obs.NewProfileRing(profileCap),
	}
	for _, o := range opts {
		o(s)
	}
	if s.logger == nil {
		s.logger = obs.NewLogger(log.Writer())
	}
	if s.admCfg.enabled() {
		s.adm = newAdmission(s.admCfg)
		// The load monitor reads pressure straight off the existing
		// mine-route latency histogram — no second bookkeeping path.
		s.shed = newLoadMonitor(s.adm, httpDuration.With("/v1/mine"), s.admCfg.SLOP99)
	}
	// The mining-grade routes run behind the admission gate, which itself
	// runs inside the mine deadline so queue time spends the same budget.
	mineGrade := func(h http.Handler) http.Handler { return withTimeout(s.mineTimeout, s.admit(h)) }
	s.route("/healthz", http.HandlerFunc(s.handleHealth))
	s.route("/v1/datasets", http.HandlerFunc(s.handleList))
	s.route("/v1/datasets/", http.HandlerFunc(s.handleDataset))
	s.route("/v1/mine", mineGrade(http.HandlerFunc(s.handleMine)))
	s.route("/v1/frequent", mineGrade(http.HandlerFunc(s.handleFrequent)))
	s.route("/v1/explain", withTimeout(s.mineTimeout, http.HandlerFunc(s.handleExplain)))
	s.handler = s.withRecover(s.mux)
	return s
}

// route registers one instrumented route on the mux.
func (s *Server) route(pattern string, h http.Handler) {
	s.mux.Handle(pattern, s.instrument(pattern, h))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// AddDataset registers a database under a name programmatically.
func (s *Server) AddDataset(name string, db *dataset.DB) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.datasets[name] = db
}

func (s *Server) lookup(name string) (*dataset.DB, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	db, ok := s.datasets[name]
	return db, ok
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is already committed, so the client sees a
		// truncated body; the failure is counted and logged rather than
		// silently swallowed.
		encodeErrors.Inc()
		s.logger.Log("encode_error", obs.F("status", status), obs.F("error", err.Error()))
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	s.writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// DatasetInfo summarizes one loaded dataset.
type DatasetInfo struct {
	Name          string  `json:"name"`
	Baskets       int     `json:"baskets"`
	Items         int     `json:"items"`
	AvgBasketSize float64 `json:"avg_basket_size"`
	MaxBasketSize int     `json:"max_basket_size"`
}

func infoFor(name string, db *dataset.DB) DatasetInfo {
	st := dataset.Summarize(db)
	return DatasetInfo{
		Name:          name,
		Baskets:       st.NumTx,
		Items:         st.NumItems,
		AvgBasketSize: st.AvgBasketSize,
		MaxBasketSize: st.MaxBasketSize,
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	names := s.datasetNames()
	out := make([]DatasetInfo, 0, len(names))
	for _, n := range names {
		if db, ok := s.lookup(n); ok {
			out = append(out, infoFor(n, db))
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

// GenerateSpec is the JSON body of the :generate action.
type GenerateSpec struct {
	Method   int   `json:"method"` // 1, 2, 3 (large-lattice), or 4 (sparse long-tail)
	Baskets  int   `json:"baskets"`
	Items    int   `json:"items"`
	Rules    int   `json:"rules,omitempty"`
	Patterns int   `json:"patterns,omitempty"`
	Blocks   int   `json:"blocks,omitempty"` // methods 3, 4: planted correlated blocks
	Seed     int64 `json:"seed"`
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/datasets/")
	if rest == "" {
		s.writeError(w, http.StatusNotFound, "dataset name missing")
		return
	}
	if name, ok := strings.CutSuffix(rest, ":generate"); ok {
		// generation is mining-grade work, so it runs under the same
		// per-request deadline and admission gate as /v1/mine
		withTimeout(s.mineTimeout, s.admit(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			s.handleGenerate(w, r, name)
		}))).ServeHTTP(w, r)
		return
	}
	name := rest
	switch r.Method {
	case http.MethodPut:
		body := http.MaxBytesReader(w, r.Body, maxUploadBytes)
		db, err := dataset.Read(body)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "parse dataset: %v", err)
			return
		}
		s.AddDataset(name, db)
		s.writeJSON(w, http.StatusCreated, infoFor(name, db))
	case http.MethodGet:
		db, ok := s.lookup(name)
		if !ok {
			s.writeError(w, http.StatusNotFound, "dataset %q not loaded", name)
			return
		}
		s.writeJSON(w, http.StatusOK, infoFor(name, db))
	case http.MethodDelete:
		s.mu.Lock()
		_, ok := s.datasets[name]
		delete(s.datasets, name)
		s.mu.Unlock()
		if !ok {
			s.writeError(w, http.StatusNotFound, "dataset %q not loaded", name)
			return
		}
		s.writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
	default:
		s.writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var spec GenerateSpec
	if !s.decodeJSON(w, r, &spec) {
		return
	}
	if spec.Baskets <= 0 || spec.Baskets > 1_000_000 {
		s.writeError(w, http.StatusBadRequest, "baskets %d outside (0, 1e6]", spec.Baskets)
		return
	}
	var db *dataset.DB
	var err error
	switch spec.Method {
	case 1:
		cfg := gen.DefaultMethod1(spec.Baskets, spec.Seed)
		if spec.Items > 0 {
			cfg.NumItems = spec.Items
		}
		if spec.Patterns > 0 {
			cfg.NumPatterns = spec.Patterns
		}
		db, err = gen.Method1(cfg)
	case 2:
		cfg := gen.DefaultMethod2(spec.Baskets, spec.Seed)
		if spec.Items > 0 {
			cfg.NumItems = spec.Items
		}
		if spec.Rules > 0 {
			cfg.NumRules = spec.Rules
		}
		db, _, err = gen.Method2(cfg)
	case 3:
		cfg := gen.DefaultLattice(spec.Baskets, spec.Seed)
		if spec.Items > 0 {
			cfg.NumItems = spec.Items
		}
		if spec.Blocks > 0 {
			cfg.NumBlocks = spec.Blocks
		}
		db, err = gen.Lattice(cfg)
	case 4:
		cfg := gen.DefaultSparse(spec.Baskets, spec.Seed)
		if spec.Items > 0 {
			cfg.NumItems = spec.Items
		}
		if spec.Blocks > 0 {
			cfg.NumBlocks = spec.Blocks
		}
		db, err = gen.Sparse(cfg)
	default:
		s.writeError(w, http.StatusBadRequest, "unknown method %d (want 1, 2, 3, or 4)", spec.Method)
		return
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "generate: %v", err)
		return
	}
	s.AddDataset(name, db)
	s.writeJSON(w, http.StatusCreated, infoFor(name, db))
}

// MineRequest is the JSON body of POST /v1/mine.
type MineRequest struct {
	Dataset string `json:"dataset"`
	// Algo is one of bms, bms+, bms++, bms*, bms**.
	Algo string `json:"algo"`
	// Query is a constraint expression in the textual language.
	Query string `json:"query,omitempty"`
	// Thresholds (zero values fall back to the paper defaults).
	Alpha           float64 `json:"alpha,omitempty"`
	CellSupport     int     `json:"cell_support,omitempty"`
	CellSupportFrac float64 `json:"cell_support_frac,omitempty"`
	CTFraction      float64 `json:"ct_fraction,omitempty"`
	MaxLevel        int     `json:"max_level,omitempty"`
	// Push enables the paper's witness push for bms++/bms**.
	Push bool `json:"push,omitempty"`
	// TimeoutMS bounds this request's wall clock; on expiry the reply is
	// still 200, with truncated=true and the completed levels. It cannot
	// extend a server-configured mine timeout, only tighten it.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MaxCandidates / MaxCells cap the work performed (core.Budget);
	// exceeding either truncates the run the same way a timeout does.
	MaxCandidates int   `json:"max_candidates,omitempty"`
	MaxCells      int64 `json:"max_cells,omitempty"`
	// CacheBytes overrides the server's prefix-intersection cache budget
	// for this request: > 0 sets the byte budget, < 0 disables the cache,
	// 0 keeps the server default (ccsserve -cache-bytes).
	CacheBytes int64 `json:"cache_bytes,omitempty"`
	// Workers overrides the server's level-engine worker count for this
	// request: > 1 shards candidate evaluation across that many goroutines,
	// < 0 forces the serial path, 0 keeps the server default (ccsserve
	// -workers). The mined answers are identical at every setting.
	Workers int `json:"workers,omitempty"`
	// Backend overrides the server's TID-list representation for this
	// request's vertical index: "dense", "compressed", or "auto" (choose by
	// dataset density); empty keeps the server default (ccsserve -backend).
	// The backend changes memory and speed only, never the mined answers.
	Backend string `json:"backend,omitempty"`
	// Profile attributes this mine's wall time across phases (candidate
	// generation, counting per shard, evaluation, pipeline stalls). The
	// reply gains a profile block and the profile also lands in the ops
	// listener's /debug/mines ring. Profiling adds clock reads on the
	// mining path, so leave it off for latency-critical traffic.
	Profile bool `json:"profile,omitempty"`
}

// MineResponse is the JSON reply of POST /v1/mine.
type MineResponse struct {
	Query   string     `json:"query"`
	Answers [][]uint32 `json:"answers"`
	Named   [][]string `json:"named_answers"`
	Stats   core.Stats `json:"stats"`
	Elapsed float64    `json:"elapsed_seconds"`
	// Truncated reports the run stopped early (deadline, cancellation, or
	// budget). Answers then holds the completed levels only: every set
	// reported is a genuine answer, but some answers may be missing.
	Truncated bool `json:"truncated,omitempty"`
	// TruncatedCause says why: "deadline", "canceled", or "budget".
	TruncatedCause string `json:"truncated_cause,omitempty"`
	// LevelSeconds is the wall-clock duration of each lattice level the
	// run visited, in visit order (len == stats.Levels).
	LevelSeconds []float64 `json:"level_seconds,omitempty"`
	// Profile is the per-phase wall-time attribution of this mine,
	// present when the request asked for profile: true.
	Profile *obs.ProfileRecord `json:"profile,omitempty"`
	// Backend is the TID-list representation the mine's vertical index
	// resolved to ("dense" or "compressed"), and IndexBytes its resident
	// size — what the auto heuristic (or an explicit override) actually
	// chose and what it cost.
	Backend    string `json:"backend,omitempty"`
	IndexBytes int64  `json:"index_bytes,omitempty"`
}

// truncationCause maps a core truncation cause to its wire label.
func truncationCause(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, core.ErrBudgetExceeded):
		return "budget"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return err.Error()
	}
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var req MineRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	db, ok := s.lookup(req.Dataset)
	if !ok {
		s.writeError(w, http.StatusNotFound, "dataset %q not loaded", req.Dataset)
		return
	}
	queryText := req.Query
	if queryText == "" {
		queryText = "true"
	}
	q, err := cql.Parse(queryText)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := constraint.CheckDomain(db.Catalog, q.All...); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	params := core.DefaultParams()
	if req.Alpha != 0 {
		params.Alpha = req.Alpha
	}
	if req.CellSupport != 0 {
		params.CellSupport = req.CellSupport
		params.CellSupportFrac = 0
	} else if req.CellSupportFrac != 0 {
		params.CellSupportFrac = req.CellSupportFrac
	}
	if req.CTFraction != 0 {
		params.CTFraction = req.CTFraction
	}
	if req.MaxLevel != 0 {
		params.MaxLevel = req.MaxLevel
	}
	algo := strings.ToLower(req.Algo)
	if algo == "" {
		algo = "bms"
	}

	// The admission record (nil when the overload layer is off) carries the
	// resolved tenant and the shed stage sampled at admission; everything
	// below degrades or clamps from that one consistent sample.
	info := admissionFrom(r.Context())
	stage := shedStageNone
	if info != nil {
		stage = info.stage
	}

	// Trace the request: a setup span up to the first level, then one span
	// per level record from the core's progress observer, carrying the
	// record's exact window — the same duration the reply reports in
	// level_seconds and the profile in its level records.
	traceAttrs := []obs.Attr{
		obs.String("dataset", req.Dataset),
		obs.String("algo", algo),
		obs.String("query", queryText),
	}
	if info != nil {
		traceAttrs = append(traceAttrs,
			obs.String("tenant", info.tenantName),
			obs.Float("queue_seconds", info.waited.Seconds()),
			obs.Int("shed_stage", info.stage))
	}
	tr := s.tracer.Start("mine", traceAttrs...)
	setupStart := time.Now()
	setupDone := false
	// finishTrace publishes the trace; a request that never reached a
	// level gets its setup span here, so every mine trace has one.
	finishTrace := func(attrs ...obs.Attr) {
		if !setupDone {
			tr.AddSpan("setup", setupStart, time.Now())
		}
		tr.Finish(attrs...)
	}

	backend := s.backend
	if req.Backend != "" {
		b, err := tidlist.ParseBackend(req.Backend)
		if err != nil {
			finishTrace(obs.String("outcome", "error"))
			s.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		backend = b
	}
	cacheBytes := s.cacheBytes
	if req.CacheBytes != 0 {
		cacheBytes = req.CacheBytes
	}
	cacheBytes = shedCacheBytes(stage, cacheBytes)
	// The counter is always built here (rather than letting core.New pick
	// its default) so the response can report which backend the index
	// resolved to and what it cost resident.
	var cc *counting.BitmapCounter
	if cacheBytes > 0 {
		cc = counting.NewCachedBitmapCounterBackend(db, cacheBytes, backend)
		// Returning the cache's bytes keeps the ccs_prefix_cache_bytes
		// gauge tracking live requests only.
		defer cc.ReleaseCache()
	} else {
		cc = counting.NewBitmapCounterBackend(db, backend)
	}
	opts := []core.Option{core.WithCounter(cc)}
	workers := s.workers
	if req.Workers != 0 {
		workers = req.Workers
	}
	workers = shedWorkers(stage, workers)
	if workers != 0 {
		opts = append(opts, core.WithWorkers(workers))
	}
	budget := core.Budget{MaxCandidates: req.MaxCandidates, MaxCells: req.MaxCells}
	if info != nil && info.tenant != nil {
		// The tenant's remaining work balance tightens the request budget,
		// so an over-budget mine truncates mid-lattice instead of
		// overdrawing its tenant.
		budget = info.tenant.clampBudget(budget)
	}
	if budget.MaxCandidates > 0 || budget.MaxCells > 0 {
		opts = append(opts, core.WithBudget(budget))
	}
	var prof *obs.Profile
	if req.Profile {
		prof = obs.NewProfile(req.Dataset + "/" + algo)
		opts = append(opts, core.WithProfile(prof))
	}
	opts = append(opts, core.WithProgress(func(ev core.ProgressEvent) {
		if !setupDone {
			tr.AddSpan("setup", setupStart, ev.Start)
			setupDone = true
		}
		tr.AddSpan(fmt.Sprintf("%s %d", ev.Phase, ev.Level), ev.Start, ev.Start.Add(ev.Duration),
			obs.String("algo", ev.Algorithm),
			obs.Int("candidates", ev.Candidates))
	}))
	m, err := core.New(db, params, opts...)
	if err != nil {
		finishTrace(obs.String("outcome", "error"))
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	if d := shedTimeout(stage, s.mineTimeout); d > 0 {
		// Stage-3 degradation: under sustained overload every mine gets a
		// tighter deadline so slots recycle faster. The reply is still 200,
		// truncated=true — the graceful half of graceful degradation.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	start := time.Now()
	var res *core.Result
	switch algo {
	case "bms":
		res, err = m.BMSContext(ctx)
	case "bms+":
		res, err = m.BMSPlusContext(ctx, q)
	case "bms++":
		res, err = m.BMSPlusPlusContext(ctx, q, core.PlusPlusOptions{PushMonotoneSuccinct: req.Push})
	case "bms*":
		res, err = m.BMSStarContext(ctx, q)
	case "bms**":
		res, err = m.BMSStarStarContext(ctx, q, core.StarStarOptions{PushMonotoneSuccinct: req.Push})
	default:
		finishTrace(obs.String("outcome", "error"))
		s.writeError(w, http.StatusBadRequest, "unknown algorithm %q", req.Algo)
		return
	}
	if err != nil {
		finishTrace(obs.String("outcome", "error"))
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if info != nil && info.tenant != nil {
		// Post-paid settlement: charge the work the mine actually did, in
		// candidates and contingency cells, against the tenant's buckets.
		info.tenant.charge(res.Stats.Candidates, res.Stats.CellsCounted)
	}
	outcome := "ok"
	if res.Truncated {
		outcome = "truncated"
		noteTruncation(r.Context(), truncationCause(res.Cause))
	}
	finishTrace(obs.String("outcome", outcome), obs.Int("answers", len(res.Answers)))
	resp := MineResponse{
		Query:          q.String(),
		Answers:        make([][]uint32, len(res.Answers)),
		Named:          make([][]string, len(res.Answers)),
		Stats:          res.Stats,
		Elapsed:        time.Since(start).Seconds(),
		Truncated:      res.Truncated,
		TruncatedCause: truncationCause(res.Cause),
		Backend:        string(cc.IndexBackend()),
		IndexBytes:     cc.IndexBytes(),
	}
	for _, d := range res.Stats.LevelDurations {
		resp.LevelSeconds = append(resp.LevelSeconds, d.Seconds())
	}
	if prof != nil {
		resp.Profile = prof.Record()
		s.profiles.Add(resp.Profile)
	}
	for i, set := range res.Answers {
		ids := make([]uint32, set.Size())
		names := make([]string, set.Size())
		for j, id := range set {
			ids[j] = uint32(id)
			names[j] = db.Catalog.Info(itemset.Item(id)).Name
		}
		resp.Answers[i] = ids
		resp.Named[i] = names
	}
	s.writeJSON(w, http.StatusOK, resp)
}
