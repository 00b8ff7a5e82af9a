package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value annotation on a trace or span.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: strconv.Itoa(value)} }

// Int64 builds an int64 attribute.
func Int64(key string, value int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(value, 10)}
}

// Float builds a float attribute.
func Float(key string, value float64) Attr {
	return Attr{Key: key, Value: strconv.FormatFloat(value, 'g', -1, 64)}
}

// Tracer records traces — one per traced operation, each a sequence of
// timed spans — into a bounded in-memory ring so the level-by-level
// timeline of a recent slow query can be inspected after the fact. A nil
// *Tracer is a valid no-op tracer: Start returns a nil *Trace whose
// methods all no-op, so call sites never branch.
type Tracer struct {
	mu     sync.Mutex
	cap    int
	recent []*Trace // oldest first
	nextID uint64
}

// defaultTraceCap bounds the ring when NewTracer is given no capacity.
const defaultTraceCap = 64

// NewTracer returns a tracer retaining the last capacity finished traces
// (<= 0 means a default of 64).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = defaultTraceCap
	}
	return &Tracer{cap: capacity}
}

// Trace is one in-flight or finished traced operation.
type Trace struct {
	tracer *Tracer

	mu    sync.Mutex
	id    string
	name  string
	attrs []Attr
	start time.Time
	end   time.Time
	spans []span
}

// span is one timed phase inside a trace, immutable once recorded.
type span struct {
	name  string
	attrs []Attr
	start time.Time
	end   time.Time
}

// Start opens a new trace. Finish must be called to publish it into the
// ring; an unfinished trace is simply never visible.
func (t *Tracer) Start(name string, attrs ...Attr) *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := strconv.FormatUint(t.nextID, 10)
	t.mu.Unlock()
	return &Trace{tracer: t, id: id, name: name, attrs: attrs, start: time.Now()}
}

// ID returns the trace's ring-unique identifier ("" on a nil trace).
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// SetAttr adds an annotation to the trace.
func (tr *Trace) SetAttr(key, value string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.attrs = append(tr.attrs, Attr{Key: key, Value: value})
	tr.mu.Unlock()
}

// AddSpan records a finished span with explicit start and end times, so
// a phase timed elsewhere — such as one of the mining core's level
// records — is reported with exactly the window its source measured.
func (tr *Trace) AddSpan(name string, start, end time.Time, attrs ...Attr) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{name: name, attrs: attrs, start: start, end: end})
	tr.mu.Unlock()
}

// Finish closes the trace and publishes it into the tracer's ring,
// evicting the oldest trace past capacity.
func (tr *Trace) Finish(attrs ...Attr) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.end.IsZero() {
		tr.end = time.Now()
	}
	tr.attrs = append(tr.attrs, attrs...)
	tr.mu.Unlock()

	t := tr.tracer
	t.mu.Lock()
	t.recent = append(t.recent, tr)
	if len(t.recent) > t.cap {
		t.recent = t.recent[len(t.recent)-t.cap:]
	}
	t.mu.Unlock()
}

// TraceRecord is the JSON shape of one finished trace.
type TraceRecord struct {
	ID              string            `json:"id"`
	Name            string            `json:"name"`
	Start           time.Time         `json:"start"`
	DurationSeconds float64           `json:"duration_seconds"`
	Attrs           map[string]string `json:"attrs,omitempty"`
	Spans           []SpanRecord      `json:"spans,omitempty"`
}

// SpanRecord is the JSON shape of one span, with times relative to the
// trace start so a timeline reads off directly.
type SpanRecord struct {
	Name            string            `json:"name"`
	OffsetSeconds   float64           `json:"offset_seconds"`
	DurationSeconds float64           `json:"duration_seconds"`
	Attrs           map[string]string `json:"attrs,omitempty"`
}

// Snapshot returns the finished traces, newest first. The result is never
// nil — a nil tracer or an empty ring yields an empty slice, so JSON
// consumers see [] rather than null.
func (t *Tracer) Snapshot() []TraceRecord {
	if t == nil {
		return []TraceRecord{}
	}
	t.mu.Lock()
	traces := append([]*Trace(nil), t.recent...)
	t.mu.Unlock()
	out := make([]TraceRecord, 0, len(traces))
	for i := len(traces) - 1; i >= 0; i-- {
		out = append(out, traces[i].record())
	}
	return out
}

func (tr *Trace) record() TraceRecord {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	rec := TraceRecord{
		ID:              tr.id,
		Name:            tr.name,
		Start:           tr.start,
		DurationSeconds: tr.end.Sub(tr.start).Seconds(),
		Attrs:           attrMap(tr.attrs),
	}
	for _, sp := range tr.spans {
		rec.Spans = append(rec.Spans, SpanRecord{
			Name:            sp.name,
			OffsetSeconds:   sp.start.Sub(tr.start).Seconds(),
			DurationSeconds: sp.end.Sub(sp.start).Seconds(),
			Attrs:           attrMap(sp.attrs),
		})
	}
	return rec
}

func attrMap(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// WriteJSON writes the snapshot as a JSON array.
func (t *Tracer) WriteJSON(w io.Writer) error {
	snap := t.Snapshot()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}
