package sqlts

// The query flight recorder (live-operations layer): every Run and
// open Stream registers a Flight in the DB's active-query registry,
// executors tick its progress counters as they go — per shard on the
// scatter-gather path — and each completed execution publishes its one
// obs.Event. /debug/queries (debug.go) lists the in-flight
// registrations and accepts a POST kill that lands in the cancellation
// path as ErrKilled; /debug/events tails the recent-event ring.

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"sqlts/internal/obs"
)

// defaultEventRingCapacity bounds the recent-event tail served by
// /debug/events.
const defaultEventRingCapacity = 256

// keptEventCapacity bounds the ring of events that carry a report or a
// trace: the slow log and the retained traces. It is a ring of its own
// so that a slow or panicked record survives a flood of fast queries;
// in the recent ring it would be evicted after 256 executions, which
// is under 0.1 s of a warm repeated query.
const keptEventCapacity = 64

// ErrNoSuchQuery reports a KillQuery id that matched no in-flight
// execution (already finished, or never existed).
var ErrNoSuchQuery = errors.New("sqlts: no such in-flight query")

// eventSinkBox wraps the sink interface so it can live in an
// atomic.Pointer (interfaces cannot).
type eventSinkBox struct{ sink obs.EventSink }

// flightState is the DB's flight-recorder state, embedded in DB.
type flightState struct {
	// flights is the active-query registry; off disables registration
	// (and the recent-event ring) entirely for overhead measurements.
	flights *obs.FlightRegistry
	off     atomic.Bool

	// sink is the pluggable event destination (nil = none); sample
	// emits 1 event in N to the sink (slow and failed runs bypass
	// sampling); recent is the tail for /debug/events, fed while the
	// recorder is on.
	sink     atomic.Pointer[eventSinkBox]
	sample   atomic.Int64
	eventSeq atomic.Int64
	recent   *obs.EventRing
}

// SetFlightRecorder enables or disables the active-query registry and
// the recent-event ring (both on by default). Disabling stops new
// registrations; flights already in the registry finish normally. The
// event sink, the statement stats and the slow log keep receiving
// events either way.
func (db *DB) SetFlightRecorder(on bool) {
	db.flight.off.Store(!on)
}

// FlightRecorderEnabled reports whether new executions register
// flights.
func (db *DB) FlightRecorderEnabled() bool { return !db.flight.off.Load() }

// ActiveQueries snapshots the in-flight executions (queries and open
// streams), oldest first.
func (db *DB) ActiveQueries() []obs.FlightSnapshot {
	return db.flight.flights.Snapshot()
}

// KillQuery terminates the identified in-flight execution: the run
// observes ErrKilled — wrapping ErrCanceled, annotated with reason —
// at its next cooperative checkpoint, and any registered context
// cancel fires immediately. ErrNoSuchQuery when the id matches no
// in-flight execution (it may have just finished).
func (db *DB) KillQuery(id uint64, reason string) error {
	err := ErrKilled
	if reason != "" {
		err = fmt.Errorf("%w (%s)", ErrKilled, reason)
	}
	if !db.flight.flights.Kill(id, err) {
		return fmt.Errorf("%w: id %d", ErrNoSuchQuery, id)
	}
	db.metrics.queriesKilledSent.Inc()
	return nil
}

// registerFlight registers one run in the active-query registry (nil
// when the recorder is off). The caller deregisters via deferred
// Deregister.
func (db *DB) registerFlight(key, executor string, planRevision int64, phase obs.FlightPhase) *obs.Flight {
	if db.flight.off.Load() {
		return nil
	}
	fl := db.flight.flights.Register(key, executor, planRevision, phase)
	db.metrics.flightsActive.Inc()
	return fl
}

// deregisterFlight drops a finished run's registration.
func (db *DB) deregisterFlight(fl *obs.Flight) {
	if fl == nil {
		return
	}
	db.flight.flights.Deregister(fl)
	db.metrics.flightsActive.Dec()
}

// SetEventSink installs the event destination: the obs.Event of every
// completed query and closed stream is handed to it (sampled per
// SetEventSampleRate; slow and failed runs always emit). nil removes
// the sink. A sink is also the slow-query hook: check Event.Slow.
func (db *DB) SetEventSink(s obs.EventSink) {
	if s == nil {
		db.flight.sink.Store(nil)
		return
	}
	db.flight.sink.Store(&eventSinkBox{sink: s})
}

// SetEventSampleRate emits 1 event in n to the sink (n ≤ 1 = every
// event). Slow and failed executions bypass sampling — those are the
// events an operator greps for.
func (db *DB) SetEventSampleRate(n int) {
	if n < 1 {
		n = 1
	}
	db.flight.sample.Store(int64(n))
}

// SetEventRingCapacity resizes the recent-event tail served by
// /debug/events (default 256; 0 disables it).
func (db *DB) SetEventRingCapacity(n int) {
	db.flight.recent.SetCapacity(n)
}

// RecentEvents returns the recent events, most recent first.
func (db *DB) RecentEvents() []obs.Event {
	return db.flight.recent.Snapshot()
}

// publish routes one finished execution's event to the rings and,
// subject to sampling, the sink. Error and slow events bypass sampling.
func (db *DB) publish(ev *obs.Event) {
	if ev.TraceID != 0 || ev.Report != "" {
		db.kept.Add(*ev)
	}
	if !db.flight.off.Load() {
		db.flight.recent.Add(*ev)
	}
	box := db.flight.sink.Load()
	if box == nil {
		return
	}
	if n := db.flight.sample.Load(); n > 1 && ev.Error == "" && !ev.Slow {
		if db.flight.eventSeq.Add(1)%n != 0 {
			return
		}
	}
	db.metrics.eventsEmitted.Inc()
	box.sink.Emit(*ev)
}

// emitStreamEvent publishes the event of one closed stream: the
// push/match totals with the stream flag set.
func (db *DB) emitStreamEvent(st *Stream, runErr error) {
	stats := st.Stats()
	ev := obs.Event{
		Time:      time.Now(),
		QueryID:   st.flight.ID(),
		SQL:       st.q.plan.key,
		Stream:    true,
		PredEvals: stats.PredEvals,
		Rollbacks: stats.Rollbacks,
		Matches:   int64(stats.Matches),
	}
	if fl := st.flight; fl != nil {
		snap := fl.Snapshot()
		ev.DurationNs = snap.ElapsedNs
		ev.Pushes = snap.Pushes
		ev.RowsScanned = snap.RowsScanned
	}
	if runErr != nil {
		setEventError(&ev, runErr)
		if ev.Report != "" {
			db.retainTrace(&ev, st.q.trace)
		}
	}
	st.entry.Record(&ev)
	db.publish(&ev)
}

// WriteActiveQueries renders the in-flight table as text with per-query
// (and per-shard) progress bars, for /debug/queries?format=text and the
// REPL \queries.
func (db *DB) WriteActiveQueries(w io.Writer) error {
	snaps := db.ActiveQueries()
	var b strings.Builder
	fmt.Fprintf(&b, "%d in-flight quer%s\n", len(snaps), plural(len(snaps), "y", "ies"))
	for _, s := range snaps {
		fmt.Fprintf(&b, "\n[%d] %s  %s", s.ID, s.Phase, oneLine(s.SQL, 120))
		if s.Killed {
			b.WriteString("  (kill pending)")
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "     elapsed %s  executor=%s", time.Duration(s.ElapsedNs).Round(time.Millisecond), s.Executor)
		if s.PlanRevision > 0 {
			fmt.Fprintf(&b, "  rev=%d", s.PlanRevision)
		}
		b.WriteByte('\n')
		if s.Pushes > 0 || s.Phase == "streaming" {
			fmt.Fprintf(&b, "     pushes=%d matches=%d pred-evals=%d\n", s.Pushes, s.Matches, s.PredEvals)
			continue
		}
		fmt.Fprintf(&b, "     clusters %s %d/%d  rows=%d matches=%d pred-evals=%d\n",
			progressBar(s.ClustersDone, s.ClustersTotal, 20), s.ClustersDone, s.ClustersTotal,
			s.RowsScanned, s.Matches, s.PredEvals)
		for _, sh := range s.Shards {
			fmt.Fprintf(&b, "       shard %2d %s %d/%d clusters (%d rows)\n",
				sh.ID, progressBar(sh.Done, sh.Clusters, 20), sh.Done, sh.Clusters, sh.Rows)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// progressBar renders done/total as a fixed-width bar; unknown totals
// render as spinnerless dashes.
func progressBar(done, total int64, width int) string {
	if total <= 0 {
		return "[" + strings.Repeat("-", width) + "]"
	}
	if done > total {
		done = total
	}
	filled := int(done * int64(width) / total)
	return "[" + strings.Repeat("#", filled) + strings.Repeat(".", width-filled) + "]"
}

// oneLine collapses a statement's whitespace to single spaces and cuts
// it to at most n runes, the last of them "…". It cuts on a rune
// boundary, so a multi-byte literal at the limit stays valid UTF-8.
func oneLine(sql string, n int) string {
	s := strings.Join(strings.Fields(sql), " ")
	if utf8.RuneCountInString(s) <= n {
		return s
	}
	runes := 0
	for i := range s {
		if runes == n-1 {
			return s[:i] + "…"
		}
		runes++
	}
	return s
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
