// Command ccsmine runs a constrained correlation query over a dataset file
// and prints the answer set with run statistics.
//
// Usage:
//
//	ccsmine -data data.ccs -algo bms++ -q 'max(price) <= 50' \
//	        -alpha 0.9 -supportfrac 0.02 -ctfrac 0.25
//
// Algorithms: bms (unconstrained baseline), bms+ and bms++ (valid minimal
// answers, Definition 1), bms* and bms** (minimal valid answers,
// Definition 2). The -push flag enables the paper's witness push for
// bms++/bms** (see DESIGN.md for the semantic consequences).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ccs/internal/constraint"
	"ccs/internal/core"
	"ccs/internal/counting"
	"ccs/internal/cql"
	"ccs/internal/dataset"
	"ccs/internal/obs"
	"ccs/internal/tidlist"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ccsmine:", err)
		os.Exit(1)
	}
}

// progressOut is where -progress writes its live lines. A variable so
// tests can capture it; the answers on stdout stay machine-readable.
var progressOut io.Writer = os.Stderr

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ccsmine", flag.ContinueOnError)
	data := fs.String("data", "", "dataset path (binary format; required)")
	textData := fs.Bool("textdata", false, "dataset is in the text format")
	algo := fs.String("algo", "bms++", "algorithm: bms, bms+, bms++, bms*, bms**, all (every valid solution; accepts avg), space (both borders)")
	query := fs.String("q", "true", "constraint expression (see package cql)")
	alpha := fs.Float64("alpha", 0.9, "chi-squared significance level")
	support := fs.Int("support", 0, "absolute cell support threshold s (overrides -supportfrac)")
	supportFrac := fs.Float64("supportfrac", 0.02, "cell support threshold as a fraction of baskets")
	ctFrac := fs.Float64("ctfrac", 0.25, "fraction p of cells that must reach the support threshold")
	maxLevel := fs.Int("maxlevel", 6, "largest itemset size explored")
	push := fs.Bool("push", false, "push single-witness monotone succinct constraints (paper mode)")
	names := fs.Bool("names", false, "print item names instead of IDs")
	verbose := fs.Bool("v", false, "print per-level progress while mining")
	progress := fs.Bool("progress", false, "write live per-level progress (one line as each level ends, with its duration) to stderr while mining")
	stream := fs.Bool("stream", false, "stream the dataset from disk on every scan (bounded memory; binary format only)")
	backendFlag := fs.String("backend", "auto", "TID-list representation of the vertical index: auto (choose by dataset density), dense, or compressed; answers are identical at every setting")
	workers := fs.Int("workers", 0, "level-engine worker goroutines: 0 = GOMAXPROCS, 1 = serial; answers are identical at every setting")
	explain := fs.Bool("explain", false, "print the query plan (classification, selectivity, recommendation) and exit")
	explainAnalyze := fs.Bool("explain-analyze", false, "profile the mine and print a per-level, per-shard phase table after the answers")
	profileJSON := fs.String("profile-json", "", "profile the mine and write the profile record as JSON to this file (ccsprof input)")
	asJSON := fs.Bool("json", false, "emit the answers and statistics as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("-data path is required")
	}

	var db *dataset.DB
	var err error
	if *textData {
		f, ferr := os.Open(*data)
		if ferr != nil {
			return ferr
		}
		db, err = dataset.ReadText(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	} else {
		db, err = dataset.ReadFile(*data)
	}
	if err != nil {
		return err
	}

	q, err := cql.Parse(*query)
	if err != nil {
		return err
	}
	if err := constraint.CheckDomain(db.Catalog, q.All...); err != nil {
		return err
	}

	params := core.Params{
		Alpha:           *alpha,
		CellSupport:     *support,
		CellSupportFrac: *supportFrac,
		CTFraction:      *ctFrac,
		MaxLevel:        *maxLevel,
	}
	var opts []core.Option
	if *workers != 0 {
		opts = append(opts, core.WithWorkers(*workers))
	}
	backend, err := tidlist.ParseBackend(*backendFlag)
	if err != nil {
		return err
	}
	if *stream {
		if *textData {
			return fmt.Errorf("-stream requires the binary dataset format")
		}
		if backend != tidlist.BackendAuto {
			return fmt.Errorf("-backend selects a vertical TID-list representation; -stream scans horizontally and has none")
		}
		dc, err := counting.NewDiskScanCounter(*data)
		if err != nil {
			return err
		}
		opts = append(opts, core.WithCounter(dc))
	} else if backend != tidlist.BackendAuto {
		opts = append(opts, core.WithCounter(counting.NewBitmapCounterBackend(db, backend)))
	}
	var prof *obs.Profile
	if *explainAnalyze || *profileJSON != "" {
		prof = obs.NewProfile(strings.ToLower(*algo))
		opts = append(opts, core.WithProfile(prof))
	}
	// -v and -progress share the single progress callback: WithProgress is
	// last-wins, so both sinks live in one function. The core calls it
	// once per level record, as each level ends.
	if *verbose || *progress {
		v, p := *verbose, *progress
		progStart := time.Now()
		opts = append(opts, core.WithProgress(func(e core.ProgressEvent) {
			if v {
				fmt.Fprintf(out, "# %s %s level %d: %d candidates\n", e.Algorithm, e.Phase, e.Level, e.Candidates)
			}
			if p {
				fmt.Fprintf(progressOut, "[%8.3fs] %s %s level %d: %d candidates, %d kept, %.6fs\n",
					time.Since(progStart).Seconds(), e.Algorithm, e.Phase, e.Level, e.Candidates, e.Kept, e.Duration.Seconds())
			}
		}))
	}
	m, err := core.New(db, params, opts...)
	if err != nil {
		return err
	}

	if *explain {
		advice, err := m.Advise(q)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "query: %s\n%s", q, advice)
		return nil
	}

	start := time.Now()
	var res *core.Result
	switch strings.ToLower(*algo) {
	case "bms":
		res, err = m.BMS()
	case "bms+":
		res, err = m.BMSPlus(q)
	case "bms++":
		res, err = m.BMSPlusPlus(q, core.PlusPlusOptions{PushMonotoneSuccinct: *push})
	case "bms*":
		res, err = m.BMSStar(q)
	case "bms**":
		res, err = m.BMSStarStar(q, core.StarStarOptions{PushMonotoneSuccinct: *push})
	case "all":
		res, err = m.AllValid(q)
	case "space":
		var desc *core.SpaceDescription
		desc, err = m.SolutionSpace(q)
		if err == nil {
			res = &core.Result{Answers: desc.Lower, Stats: desc.Stats}
			fmt.Fprintf(out, "upper border (%d maximal solutions):\n", len(desc.Upper))
			for _, s := range desc.Upper {
				fmt.Fprintf(out, "  %v\n", s)
			}
		}
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	var rec *obs.ProfileRecord
	if prof != nil {
		rec = prof.Record()
		if *profileJSON != "" {
			if err := writeProfileJSON(*profileJSON, rec); err != nil {
				return err
			}
		}
	}

	if *asJSON {
		type jsonOut struct {
			Query   string             `json:"query"`
			Answers [][]uint32         `json:"answers"`
			Stats   core.Stats         `json:"stats"`
			Seconds float64            `json:"seconds"`
			Profile *obs.ProfileRecord `json:"profile,omitempty"`
		}
		jo := jsonOut{Query: q.String(), Stats: res.Stats, Seconds: elapsed.Seconds(), Profile: rec}
		for _, s := range res.Answers {
			ids := make([]uint32, s.Size())
			for i, id := range s {
				ids[i] = uint32(id)
			}
			jo.Answers = append(jo.Answers, ids)
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(jo)
	}

	fmt.Fprintf(out, "query: %s\n", q)
	fmt.Fprintf(out, "data: %d baskets, %d items; s=%d, p=%.2f, alpha=%.2f (cutoff %.3f)\n",
		db.NumTx(), db.NumItems(), m.CellSupport(), *ctFrac, *alpha, m.Cutoff())
	fmt.Fprintf(out, "answers (%d):\n", len(res.Answers))
	for _, s := range res.Answers {
		if *names {
			parts := make([]string, s.Size())
			for i, id := range s {
				parts[i] = db.Catalog.Info(id).Name
			}
			fmt.Fprintf(out, "  {%s}\n", strings.Join(parts, ", "))
		} else {
			fmt.Fprintf(out, "  %v\n", s)
		}
	}
	fmt.Fprintf(out, "stats: %d sets considered, %d chi-squared tests, %d candidates, %d pruned by a.m. constraints, %d levels, %d scans, %.3fs\n",
		res.Stats.SetsConsidered, res.Stats.ChiSquaredTests, res.Stats.Candidates,
		res.Stats.PrunedByAM, res.Stats.Levels, res.Stats.DBScans, elapsed.Seconds())
	if *explainAnalyze {
		return renderProfile(out, rec)
	}
	return nil
}
