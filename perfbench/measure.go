package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ccs/internal/core"
	"ccs/internal/obs"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	setup func(seed int64) (*env, error)
}

var workloads = map[string]workload{
	"lattice-dense":  {"lattice-dense", latticeSetup},
	"sparse-candgen": {"sparse-candgen", sparseSetup},
	"serve-mixed":    {"serve-mixed", serveSetup},
}

// env is a workload after set-up: its callers send ops in a closed loop
// until the measured window closes.
type env struct {
	callers int
	// cycle is the number of ops in one pass of a caller's mix. The traced
	// run traces whole cycles, every other one, so traced and untraced ops
	// carry the same mix.
	cycle int
	// tail is the percentile op_ms_tail reports.
	tail float64
	// served marks ops that are HTTP requests to the service.
	served bool
	// op runs caller c's i-th op. tr is nil on untraced ops.
	op func(c, i int, tr *opTracer) outcome
	// setupRep runs one full set-up repetition, from corpus generation
	// through warm-up, replaces the workload's state with its result and
	// appends its time to setupS. Every repetition builds the same state
	// from the same seed.
	setupRep func() error
	// release runs after the window, before retained_mb is read. It brings
	// the program's bounded state to the same point in every run and drops
	// what the benchmark itself keeps of the inputs, so the heap left
	// holds only the program's data. It may be nil.
	release func() error

	setupS []float64 // seconds of each full set-up
	genS   []float64 // seconds of each corpus generation
	readMS []float64 // dataset.Read of the corpus in each set-up, library workloads
	// weights gives each op type's share of a caller's cycle, so counts
	// per op are averaged over the mix exactly.
	weights map[string]int
}

// outcome is what one op reports.
type outcome struct {
	typ   string // op type within the mix
	kind  string // "mine" or "upload"
	start time.Time
	dur   time.Duration // the op as its caller sees it
	mine  time.Duration // the mining call alone, on mine ops
	err   error         // failure, or an output that did not match the oracle

	// The fields below are filled on traced ops only.
	traced     bool
	prof       *obs.ProfileRecord
	stats      core.Stats
	indexBuild time.Duration // dataset.BuildVerticalIndexBackend, timed apart from the op
	indexBytes int64
	read       time.Duration // dataset.Read of an upload's bytes, timed apart from the op
}

// measurement is one measured window.
type measurement struct {
	outcomes  []outcome
	elapsed   time.Duration // summed over the window's segments
	allocMB   float64       // bytes allocated during the window, in MB
	stealFrac float64       // host steal share of CPU time over the window
}

// repeatSetup runs n full set-up repetitions.
func (e *env) repeatSetup(n int) error {
	for r := 0; r < n; r++ {
		if err := e.setupRep(); err != nil {
			return err
		}
	}
	return nil
}

// Set-up repeats a fixed amount of work seven times a run, and setup_s is
// the median. Host noise on the reference machine moves set-ups of the same
// work by up to a third from one second to the next, so two repetitions
// come before the measured window and five split it into six equal
// segments: the repetitions sample the same host as the window, and no
// single slow one moves the median.
const (
	setupBefore    = 2
	windowSegments = 6
)

// measure runs e's callers for d, in windowSegments segments with a full
// set-up repetition between each two, and collects their outcomes. Each
// caller's op index runs on across segments. With a tracer, every other
// cycle of each caller is traced.
func measure(e *env, d time.Duration, tr *tracer) (measurement, error) {
	var m measurement
	per := make([][]outcome, e.callers)
	steal0, total0 := readSteal()
	for seg := 0; seg < windowSegments; seg++ {
		if seg > 0 {
			if err := e.setupRep(); err != nil {
				return m, fmt.Errorf("set-up between window segments: %w", err)
			}
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		deadline := start.Add(d / windowSegments)
		var wg sync.WaitGroup
		for c := 0; c < e.callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := len(per[c]); time.Now().Before(deadline); i++ {
					var ot *opTracer
					if tr != nil && (i/e.cycle)%2 == 0 {
						ot = tr.op()
					}
					o := e.op(c, i, ot)
					o.traced = ot != nil
					per[c] = append(per[c], o)
				}
			}(c)
		}
		wg.Wait()
		m.elapsed += time.Since(start)
		runtime.ReadMemStats(&after)
		m.allocMB += float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	}
	steal1, total1 := readSteal()
	for _, p := range per {
		m.outcomes = append(m.outcomes, p...)
	}
	if total1 > total0 {
		m.stealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	return m, nil
}

// retainedMB returns the heap in MB after a forced GC.
func retainedMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// readSteal returns the steal and total jiffies of the host's CPU line in
// /proc/stat, or zeros where it cannot be read.
func readSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// minBeyondTail is the fewest samples that must lie beyond the tail
// percentile for op_ms_tail to be reported.
const minBeyondTail = 10

// endToEndMetrics turns an untraced window into the end-to-end metrics
// other than retained_mb and setup_s, with the sample count behind each.
// It fails when the window holds too few ops for the tail percentile.
func endToEndMetrics(e *env, m measurement) (map[string]metric, map[string]int, error) {
	var all, mines []float64
	passed := 0
	for _, o := range m.outcomes {
		if o.err == nil {
			passed++
		}
		all = append(all, ms(o.dur))
		if o.kind == "mine" {
			mines = append(mines, ms(o.mine))
		}
	}
	tail, beyond := percentile(all, e.tail)
	if beyond < minBeyondTail {
		return nil, nil, fmt.Errorf("op_ms_tail: %d of %d samples lie beyond p%.0f, at least %d must; lengthen --seconds",
			beyond, len(all), e.tail*100, minBeyondTail)
	}
	p50, _ := percentile(all, 0.5)
	mine50, _ := percentile(mines, 0.5)
	metrics := map[string]metric{
		"ops_per_s":       {float64(passed) / m.elapsed.Seconds(), "1/s"},
		"op_ms_p50":       {p50, "ms"},
		"op_ms_tail":      {tail, "ms"},
		"mine_ms_p50":     {mine50, "ms"},
		"alloc_mb_per_op": {m.allocMB / float64(len(m.outcomes)), "MB"},
	}
	samples := map[string]int{
		"ops":           len(all),
		"tail_pct":      int(math.Round(e.tail * 100)),
		"tail_beyond":   beyond,
		"mine":          len(mines),
		"steal_percent": int(math.Round(m.stealFrac * 100)),
	}
	return metrics, samples, nil
}

// percentile returns the nearest-rank p-quantile of xs and the number of
// samples beyond it. It returns 0 for no samples.
func percentile(xs []float64, p float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], len(s) - 1 - i
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func since(t time.Time) float64 { return time.Since(t).Seconds() }
