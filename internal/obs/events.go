package obs

// The per-execution record: one self-contained Event per completed
// query (or closed stream) carrying the full counter set, so post-hoc
// analysis is grep/jq over a file. The same value feeds the metrics,
// the statement store, the in-memory EventRings (the recent tail, the
// slow log and the retained traces are views over them) and a
// pluggable EventSink.

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one completed execution (or closed stream), wide: every
// counter the run accumulated, the cache/kernel/vectorize/shard flags,
// for failures the error text and its class, and for slow, panicked or
// sampled runs the report and lifecycle trace.
type Event struct {
	Time     time.Time `json:"ts"`
	QueryID  uint64    `json:"query_id,omitempty"`
	SQL      string    `json:"sql"`
	Executor string    `json:"executor,omitempty"`
	Stream   bool      `json:"stream,omitempty"`

	DurationNs      int64 `json:"duration_ns"`
	AdmissionWaitNs int64 `json:"admission_wait_ns,omitempty"`

	Rows        int64 `json:"rows"`
	RowsScanned int64 `json:"rows_scanned"`
	Clusters    int64 `json:"clusters"`
	PredEvals   int64 `json:"pred_evals"`
	Rollbacks   int64 `json:"rollbacks"`
	Matches     int64 `json:"matches"`
	Pushes      int64 `json:"pushes,omitempty"`

	PlanCached      bool  `json:"plan_cached"`
	PartitionCached bool  `json:"partition_cached"`
	Kernel          bool  `json:"kernel"`
	Vectorized      bool  `json:"vectorized"`
	Shards          int   `json:"shards,omitempty"`
	PlanRevision    int64 `json:"plan_revision,omitempty"`

	Error     string `json:"error,omitempty"`
	ErrorKind string `json:"error_kind,omitempty"`
	Slow      bool   `json:"slow,omitempty"`

	// Report is the plan annotated with the run (slow runs) or the
	// panic value and captured stack (contained panics).
	Report string `json:"report,omitempty"`
	// TraceID keys the retained lifecycle trace; it is set exactly when
	// Spans is, from one sequence per DB.
	TraceID uint64 `json:"trace_id,omitempty"`
	// Spans is the lifecycle trace of slow, panicked and sampled runs.
	Spans []*Span `json:"-"`
}

// EventSink consumes wide events. Emit is called synchronously from
// the finishing query's goroutine and must be safe for concurrent use;
// keep it cheap (buffer and hand off for heavy processing).
type EventSink interface {
	Emit(Event)
}

// WriterSink is an EventSink writing one JSON line per event to an
// io.Writer (a file, a pipe, a network conn). Writes are serialized by
// an internal mutex; a write error drops the failing event and is
// retained for Err.
type WriterSink struct {
	mu    sync.Mutex
	enc   *json.Encoder
	err   error
	count atomic.Int64
}

// NewWriterSink wraps w as a JSON-lines event sink.
func NewWriterSink(w io.Writer) *WriterSink {
	return &WriterSink{enc: json.NewEncoder(w)}
}

// Emit implements EventSink.
func (s *WriterSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.enc.Encode(e); err != nil && s.err == nil {
		s.err = err
	}
	s.count.Add(1)
}

// Count returns the number of events emitted (write failures included).
func (s *WriterSink) Count() int64 { return s.count.Load() }

// Err returns the first write error, if any.
func (s *WriterSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// EventRing retains the most recent events in a fixed-capacity ring.
// The zero capacity disables retention. All methods are safe for
// concurrent use; a nil ring is inert.
type EventRing struct {
	mu       sync.Mutex
	capacity int
	// buf grows to capacity on demand (an unused ring costs nothing),
	// then wraps: next is the oldest slot, overwritten next.
	buf   []Event
	next  int
	total int64
}

// NewEventRing creates a ring retaining up to capacity events.
func NewEventRing(capacity int) *EventRing {
	return &EventRing{capacity: max(capacity, 0)}
}

// Add records one event, evicting the oldest at capacity.
func (r *EventRing) Add(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	switch {
	case len(r.buf) < r.capacity:
		r.buf = append(r.buf, e)
	case r.capacity > 0:
		r.buf[r.next] = e
		r.next = (r.next + 1) % r.capacity
	}
}

// Snapshot returns the retained events, most recent first.
func (r *EventRing) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	out := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(r.next-1-i+n)%n])
	}
	return out
}

// Total returns the number of events ever added (retained or evicted).
func (r *EventRing) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Reset drops every retained event (the capacity is kept).
func (r *EventRing) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf, r.next = nil, 0
}

// SetCapacity resizes the ring, keeping the most recent events that
// fit.
func (r *EventRing) SetCapacity(capacity int) {
	if r == nil {
		return
	}
	capacity = max(capacity, 0)
	recent := r.Snapshot()
	if len(recent) > capacity {
		recent = recent[:capacity]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.capacity, r.buf, r.next = capacity, nil, 0
	// recent is most-recent-first; reinsert oldest-first.
	for i := len(recent) - 1; i >= 0; i-- {
		r.buf = append(r.buf, recent[i])
	}
}
