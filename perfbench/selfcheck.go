package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the self-check needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// selfCheck runs the benchmark binary runs times per set over distinct
// seeds, sets times, on one workload or all of them, and prints each
// metric's median, quartiles and spread per set next to its bound, and the
// drift of each set's median from the first set's. The run context of
// every run is echoed, but nothing is dropped or re-run because of it.
func selfCheck(only string, seed0 int64, seconds int, traced bool, runs, sets int, outDir string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	metrics := spec.EndToEnd
	if traced {
		metrics = spec.PerLayer
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	problems := 0
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := make([]map[string][]float64, sets)
		for s := 0; s < sets; s++ {
			values[s] = map[string][]float64{}
			for r := 0; r < runs; r++ {
				seed := seed0 + int64(s*runs+r)
				cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.Itoa(seconds), "--trace", trace, "--out", outDir)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					// The run's own message, on stderr, says why.
					fmt.Printf("FAIL %s seed %d: %v\n", w.Name, seed, err)
					problems++
					continue
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return fmt.Errorf("%s seed %d: result line: %w", w.Name, seed, err)
				}
				if !res.Correct || res.Failed > 0 {
					fmt.Printf("FAIL %s seed %d: %d of %d ops failed\n", w.Name, seed, res.Failed, res.Attempted)
					problems++
				}
				if len(res.Metrics) != len(metrics) {
					fmt.Printf("FAIL %s seed %d: %d metrics, BENCHMARK.json lists %d\n", w.Name, seed, len(res.Metrics), len(metrics))
					problems++
				}
				for _, m := range metrics {
					v, ok := res.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						fmt.Printf("FAIL %s seed %d: metric %s missing or unit %q\n", w.Name, seed, m.Name, v.Unit)
						problems++
						continue
					}
					values[s][m.Name] = append(values[s][m.Name], v.Value)
				}
				if len(lines) > 1 {
					fmt.Printf("set %d %s\n", s+1, lines[len(lines)-2])
				}
			}
		}
		fmt.Printf("\n%s: %d runs per set, %d sets, %ds each\n", w.Name, runs, sets, seconds)
		fmt.Printf("%-30s %5s  %-44s %s\n", "metric", "bound", "per set: median [q1 q3] spread", "drift")
		for _, m := range metrics {
			var cols []string
			var first float64
			drift := ""
			for s := 0; s < sets; s++ {
				xs := values[s][m.Name]
				if len(xs) < 2 {
					continue
				}
				med, q1, q3 := quartiles(xs)
				spread := 0.0
				if med != 0 {
					spread = (q3 - q1) / abs(med)
				}
				flag := ""
				if m.Bound > 0 && spread > m.Bound {
					flag = " SPREAD>BOUND"
					problems++
				} else if m.Bound > 0 && spread > m.Bound/3 {
					flag = " spread>bound/3"
				}
				cols = append(cols, fmt.Sprintf("%.4g [%.4g %.4g] %.3f%s", med, q1, q3, spread, flag))
				if s == 0 {
					first = med
				} else if first != 0 {
					worse := (med - first) / abs(first)
					if m.Better == "higher" {
						worse = -worse
					}
					drift += fmt.Sprintf(" %+.3f", worse)
					if m.Bound > 0 && worse > m.Bound {
						drift += " DRIFT>BOUND"
						problems++
					}
				}
			}
			fmt.Printf("%-30s %5.2f  %s |%s\n", m.Name, m.Bound, strings.Join(cols, " | "), drift)
		}
	}
	if problems > 0 {
		return fmt.Errorf("%d problems", problems)
	}
	return nil
}

// quartiles returns the median and the first and third quartiles of xs
// with the exclusive method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (med, q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(2), q(1), q(3)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
