package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ccs/internal/gen"
	"ccs/internal/obs"
)

// obsServer builds a Server with a captured log and a small dataset,
// returning the Server itself (for tracer/ops access) alongside the
// httptest listener.
func obsServer(t *testing.T) (*Server, *httptest.Server, *bytes.Buffer) {
	t.Helper()
	var logged bytes.Buffer
	s := New(WithLogWriter(&logged))
	db, err := gen.Method1(gen.DefaultMethod1(500, 11))
	if err != nil {
		t.Fatal(err)
	}
	s.AddDataset("d", db)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv, &logged
}

// TestMineTraceSpansCoverDuration is the acceptance criterion: after one
// /v1/mine the trace ring holds a "mine" trace whose per-phase span
// durations sum to the trace duration within 10%.
func TestMineTraceSpansCoverDuration(t *testing.T) {
	s, srv, _ := obsServer(t)
	resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/mine", MineRequest{
		Dataset: "d", Algo: "bms", Query: "max(price) <= 60", CellSupportFrac: 0.05, MaxLevel: 4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine: %d %s", resp.StatusCode, body)
	}
	traces := s.tracer.Snapshot()
	if len(traces) == 0 {
		t.Fatal("no trace recorded after a mine request")
	}
	tr := traces[0] // newest first
	if tr.Name != "mine" {
		t.Fatalf("trace name = %q, want mine", tr.Name)
	}
	if tr.Attrs["dataset"] != "d" || tr.Attrs["algo"] != "bms" {
		t.Fatalf("trace attrs = %v", tr.Attrs)
	}
	if tr.Attrs["outcome"] != "ok" {
		t.Fatalf("trace outcome = %q, want ok", tr.Attrs["outcome"])
	}
	if len(tr.Spans) < 2 { // setup + at least one level
		t.Fatalf("trace has %d spans, want setup plus levels: %+v", len(tr.Spans), tr.Spans)
	}
	if tr.Spans[0].Name != "setup" {
		t.Fatalf("first span = %q, want setup", tr.Spans[0].Name)
	}
	var sum float64
	for _, sp := range tr.Spans {
		if sp.DurationSeconds < 0 {
			t.Fatalf("span %q has negative duration", sp.Name)
		}
		sum += sp.DurationSeconds
	}
	if tr.DurationSeconds <= 0 {
		t.Fatalf("trace duration = %v", tr.DurationSeconds)
	}
	// The spans chain contiguously (each phase change ends the previous
	// span), so their sum must reconstruct the trace duration.
	if diff := sum - tr.DurationSeconds; diff < -0.1*tr.DurationSeconds || diff > 0.1*tr.DurationSeconds {
		t.Fatalf("span sum %.6fs vs trace %.6fs: off by more than 10%%", sum, tr.DurationSeconds)
	}
}

// TestMineLevelSecondsSurfaced checks the per-level durations ride the
// /v1/mine reply and agree with stats.levels.
func TestMineLevelSecondsSurfaced(t *testing.T) {
	_, srv, _ := obsServer(t)
	resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/mine", MineRequest{
		Dataset: "d", Algo: "bms", Query: "max(price) <= 60", CellSupportFrac: 0.05, MaxLevel: 4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine: %d %s", resp.StatusCode, body)
	}
	var mr MineResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Stats.Levels == 0 {
		t.Fatalf("mine visited no levels: %s", body)
	}
	if len(mr.LevelSeconds) != mr.Stats.Levels {
		t.Fatalf("level_seconds has %d entries, stats.levels = %d", len(mr.LevelSeconds), mr.Stats.Levels)
	}
	for i, d := range mr.LevelSeconds {
		if d < 0 {
			t.Fatalf("level_seconds[%d] = %v", i, d)
		}
	}
}

// TestMineLevelSurfacesAgree checks that a profiled /v1/mine reports one
// window per counted level on all three of its per-level surfaces:
// level_seconds, the profile's level records and the trace's level spans
// carry the same durations, exactly. BMS** also records uncounted "chi"
// levels (evaluation of stored tables); those appear in the profile and
// the trace but not in stats.levels or level_seconds.
func TestMineLevelSurfacesAgree(t *testing.T) {
	s, srv, _ := obsServer(t)
	for _, algo := range []string{"bms", "bms**"} {
		resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/mine", MineRequest{
			Dataset: "d", Algo: algo, Query: "sum(price) >= 1", CellSupportFrac: 0.05, MaxLevel: 4, Profile: true,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: mine: %d %s", algo, resp.StatusCode, body)
		}
		var mr MineResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			t.Fatal(err)
		}
		if mr.Stats.Levels == 0 || mr.Profile == nil {
			t.Fatalf("%s: no levels or no profile: %s", algo, body)
		}
		if len(mr.LevelSeconds) != mr.Stats.Levels {
			t.Fatalf("%s: level_seconds has %d entries, stats.levels = %d", algo, len(mr.LevelSeconds), mr.Stats.Levels)
		}
		var profSecs []float64
		for _, lv := range mr.Profile.Levels {
			if lv.Phase != "chi" {
				profSecs = append(profSecs, lv.Seconds)
			}
		}
		tr := s.tracer.Snapshot()[0]
		var spanSecs []float64
		for _, sp := range tr.Spans {
			if sp.Name != "setup" && !strings.HasPrefix(sp.Name, "chi ") {
				spanSecs = append(spanSecs, sp.DurationSeconds)
			}
		}
		if len(profSecs) != mr.Stats.Levels || len(spanSecs) != mr.Stats.Levels {
			t.Fatalf("%s: %d counted profile levels, %d level spans, %d levels",
				algo, len(profSecs), len(spanSecs), mr.Stats.Levels)
		}
		if len(mr.Profile.Levels) != len(tr.Spans)-1 {
			t.Errorf("%s: %d profile levels but %d level spans", algo, len(mr.Profile.Levels), len(tr.Spans)-1)
		}
		for i, d := range mr.LevelSeconds {
			if profSecs[i] != d || spanSecs[i] != d {
				t.Errorf("%s: level %d: level_seconds %v, profile %v, trace span %v", algo, i, d, profSecs[i], spanSecs[i])
			}
		}
	}
}

// TestRequestLogLine checks the structured request log: one JSON line per
// request with id, route, status, and duration; truncated mines carry the
// cause.
func TestRequestLogLine(t *testing.T) {
	_, srv, logged := obsServer(t)
	resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/mine", MineRequest{
		Dataset: "d", Algo: "bms", CellSupportFrac: 0.05, MaxLevel: 4, MaxCandidates: 1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine: %d %s", resp.StatusCode, body)
	}
	var line map[string]interface{}
	var found bool
	for _, raw := range strings.Split(logged.String(), "\n") {
		if !strings.Contains(raw, `"event":"request"`) {
			continue
		}
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			t.Fatalf("request log line is not JSON: %q: %v", raw, err)
		}
		found = true
	}
	if !found {
		t.Fatalf("no request event in log: %q", logged.String())
	}
	if line["route"] != "/v1/mine" || line["method"] != "POST" {
		t.Fatalf("log line route/method = %v/%v", line["route"], line["method"])
	}
	if line["status"] != float64(http.StatusOK) {
		t.Fatalf("log line status = %v", line["status"])
	}
	if _, ok := line["id"]; !ok {
		t.Fatalf("log line has no request id: %v", line)
	}
	if d, ok := line["duration_seconds"].(float64); !ok || d < 0 {
		t.Fatalf("log line duration_seconds = %v", line["duration_seconds"])
	}
	if line["truncated"] != "budget" {
		t.Fatalf("log line truncated = %v, want budget", line["truncated"])
	}
}

// TestOpsHandlerMetrics drives a mine through the public surface, then
// scrapes the ops handler and checks the acceptance metric names appear in
// valid Prometheus text.
func TestOpsHandlerMetrics(t *testing.T) {
	s, srv, _ := obsServer(t)
	if resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/mine", MineRequest{
		Dataset: "d", Algo: "bms", CellSupportFrac: 0.05, MaxLevel: 3,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("mine: %d %s", resp.StatusCode, body)
	}

	ops := httptest.NewServer(s.OpsHandler(func() map[string]interface{} {
		return map[string]interface{}{"addr": "test"}
	}))
	defer ops.Close()

	resp, err := http.Get(ops.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("metrics content type = %q", ct)
	}
	for _, want := range []string{
		"ccs_mines_total",
		"ccs_candidates_total",
		"ccs_cells_counted_total",
		"ccs_http_request_duration_seconds_bucket",
		"ccs_http_in_flight",
		"ccs_http_requests_total",
		`route="/v1/mine"`,
		`le="+Inf"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	// /debug/traces shows the mine trace as JSON.
	resp, err = http.Get(ops.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var traces []obs.TraceRecord
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatalf("/debug/traces not JSON: %v", err)
	}
	if len(traces) == 0 || traces[0].Name != "mine" {
		t.Fatalf("/debug/traces = %+v", traces)
	}

	// /debug/vars carries the server facts plus the extra vars.
	resp, err = http.Get(ops.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if vars["addr"] != "test" {
		t.Fatalf("extra var missing: %v", vars)
	}
	if _, ok := vars["datasets"]; !ok {
		t.Fatalf("/debug/vars missing datasets: %v", vars)
	}
}

// TestMineProfile checks profile: true returns the phase attribution on
// the reply, lands the record in /debug/mines, and that an unprofiled
// request carries no profile block.
func TestMineProfile(t *testing.T) {
	s, srv, _ := obsServer(t)

	// unprofiled: no profile block, nothing in the ring
	resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/mine", MineRequest{
		Dataset: "d", Algo: "bms", CellSupportFrac: 0.05, MaxLevel: 4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine: %d %s", resp.StatusCode, body)
	}
	var mr MineResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Profile != nil {
		t.Fatalf("unprofiled mine returned a profile: %+v", mr.Profile)
	}
	if got := len(s.profiles.Snapshot()); got != 0 {
		t.Fatalf("unprofiled mine entered the ring: %d records", got)
	}

	// profiled, parallel: phases and worker attribution on the reply
	resp, body = doJSON(t, http.MethodPost, srv.URL+"/v1/mine", MineRequest{
		Dataset: "d", Algo: "bms", CellSupportFrac: 0.05, MaxLevel: 4,
		Workers: 4, Profile: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profiled mine: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	p := mr.Profile
	if p == nil {
		t.Fatalf("profiled mine returned no profile: %s", body)
	}
	if p.Name != "d/bms" || p.Workers != 4 {
		t.Fatalf("profile header = name %q workers %d", p.Name, p.Workers)
	}
	if p.WallSeconds <= 0 || len(p.Phases) == 0 {
		t.Fatalf("profile empty: %+v", p)
	}
	if _, ok := p.Phases[obs.PhaseCandgen]; !ok {
		t.Fatalf("profile has no candgen phase: %v", p.Phases)
	}
	if p.Candidates == 0 || len(p.Levels) == 0 {
		t.Fatalf("profile recorded no levels: %+v", p)
	}
	// phase totals stay within the run's wall clock plus the residual
	var sum float64
	for _, ph := range p.Phases {
		sum += ph.Seconds
	}
	if sum > p.WallSeconds*1.05 {
		t.Fatalf("phases sum to %g, wall is %g", sum, p.WallSeconds)
	}

	// the record is on the ops surface
	ops := httptest.NewServer(s.OpsHandler(nil))
	defer ops.Close()
	resp2, err := http.Get(ops.URL + "/debug/mines")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var recs []obs.ProfileRecord
	if err := json.NewDecoder(resp2.Body).Decode(&recs); err != nil {
		t.Fatalf("/debug/mines not JSON: %v", err)
	}
	if len(recs) != 1 || recs[0].Name != "d/bms" {
		t.Fatalf("/debug/mines = %+v", recs)
	}
}

// TestWriteJSONEncodeErrorCounted feeds writeJSON an unencodable value and
// checks the failure is counted and logged instead of vanishing.
func TestWriteJSONEncodeErrorCounted(t *testing.T) {
	var logged bytes.Buffer
	s := New(WithLogWriter(&logged))
	before := metricValue(t, MetricHTTPEncodeErrorsTotal)
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, map[string]interface{}{"f": func() {}})
	after := metricValue(t, MetricHTTPEncodeErrorsTotal)
	if after != before+1 {
		t.Fatalf("%s went %v -> %v, want +1", MetricHTTPEncodeErrorsTotal, before, after)
	}
	if !strings.Contains(logged.String(), `"event":"encode_error"`) {
		t.Fatalf("encode error not logged: %q", logged.String())
	}
}

// metricValue scrapes the default registry and returns the summed value of
// every series of the named family (0 when absent).
func metricValue(t *testing.T, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if _, err := obs.Default().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		metric := fields[0]
		if metric != name && !strings.HasPrefix(metric, name+"{") {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		sum += v
	}
	return sum
}
