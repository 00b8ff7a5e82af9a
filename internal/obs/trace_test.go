package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestTraceLifecycle checks a trace with spans round-trips into a record
// whose spans keep their recorded windows exactly and sum (roughly) to the
// trace duration.
func TestTraceLifecycle(t *testing.T) {
	tr := NewTracer(4).Start("mine", String("dataset", "demo"))
	if tr.ID() == "" {
		t.Fatal("trace has empty id")
	}
	s1 := time.Now()
	time.Sleep(5 * time.Millisecond)
	s2 := time.Now()
	tr.AddSpan("level", s1, s2, Int("level", 1), Int("candidates", 12))
	time.Sleep(5 * time.Millisecond)
	tr.AddSpan("level", s2, time.Now(), Int("level", 2))
	tr.SetAttr("algo", "bms")
	tr.Finish(String("outcome", "ok"))

	tracer := tr.tracer
	snap := tracer.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d traces, want 1", len(snap))
	}
	rec := snap[0]
	if rec.Name != "mine" || rec.Attrs["dataset"] != "demo" || rec.Attrs["algo"] != "bms" || rec.Attrs["outcome"] != "ok" {
		t.Errorf("trace record wrong: %+v", rec)
	}
	if len(rec.Spans) != 2 {
		t.Fatalf("trace has %d spans, want 2", len(rec.Spans))
	}
	if rec.Spans[0].Attrs["candidates"] != "12" {
		t.Errorf("span attrs wrong: %+v", rec.Spans[0])
	}
	var sum float64
	for _, sp := range rec.Spans {
		if sp.DurationSeconds <= 0 {
			t.Errorf("span %q has non-positive duration %g", sp.Name, sp.DurationSeconds)
		}
		sum += sp.DurationSeconds
	}
	if rec.DurationSeconds <= 0 || sum > rec.DurationSeconds*1.01 {
		t.Errorf("span sum %g exceeds trace duration %g", sum, rec.DurationSeconds)
	}
	if got, want := rec.Spans[0].DurationSeconds, s2.Sub(s1).Seconds(); got != want {
		t.Errorf("span 1 lasts %g, recorded window %g", got, want)
	}
}

// TestTracerRingEviction checks the ring keeps the newest cap traces.
func TestTracerRingEviction(t *testing.T) {
	tracer := NewTracer(3)
	for i := 0; i < 5; i++ {
		tracer.Start("op", Int("i", i)).Finish()
	}
	snap := tracer.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(snap))
	}
	// newest first: i = 4, 3, 2
	for j, want := range []string{"4", "3", "2"} {
		if snap[j].Attrs["i"] != want {
			t.Errorf("snapshot[%d] has i=%q, want %q", j, snap[j].Attrs["i"], want)
		}
	}
}

// TestTracerNilSafe checks every method on a nil tracer and trace no-ops.
func TestTracerNilSafe(t *testing.T) {
	var tracer *Tracer
	tr := tracer.Start("ignored")
	if tr != nil {
		t.Fatal("nil tracer returned a non-nil trace")
	}
	tr.SetAttr("k", "v")
	tr.AddSpan("phase", time.Now(), time.Now())
	tr.Finish()
	if tr.ID() != "" {
		t.Error("nil trace has an id")
	}
	if got := tracer.Snapshot(); got == nil || len(got) != 0 {
		t.Errorf("nil tracer snapshot = %v, want non-nil empty slice", got)
	}
	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("nil tracer WriteJSON = %q, want []", buf.String())
	}
}

// TestWriteJSONShape checks /debug/traces payloads parse and carry spans.
func TestWriteJSONShape(t *testing.T) {
	tracer := NewTracer(2)
	tr := tracer.Start("mine")
	tr.AddSpan("levelwise 1", time.Now(), time.Now())
	tr.Finish()
	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var recs []TraceRecord
	if err := json.Unmarshal(buf.Bytes(), &recs); err != nil {
		t.Fatalf("WriteJSON output does not parse: %v\n%s", err, buf.String())
	}
	if len(recs) != 1 || len(recs[0].Spans) != 1 || recs[0].Spans[0].Name != "levelwise 1" {
		t.Errorf("unexpected trace payload: %+v", recs)
	}
}

// TestUnfinishedTraceInvisible checks Start without Finish publishes nothing.
func TestUnfinishedTraceInvisible(t *testing.T) {
	tracer := NewTracer(2)
	tracer.Start("pending")
	if got := len(tracer.Snapshot()); got != 0 {
		t.Errorf("unfinished trace visible: %d records", got)
	}
}
