package sqlts

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"sqlts/internal/fault"
	"sqlts/internal/obs"
	"sqlts/internal/storage"
)

// introspectSQL are two distinct statements used by the introspection
// tests (both double-bottom-style patterns over the quote table).
const (
	introspectSQL1 = `SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z)
		WHERE Y.price > 1.15*X.price AND Z.price < 0.80*Y.price`
	introspectSQL2 = `SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y)
		WHERE Y.price > X.price`
)

// TestStatementTotalsMatchResults is the differential acceptance test:
// the statement-stats totals must agree exactly with the summed Result
// counters across cached, uncached, kernel, interpreter, naive and
// overlap executions — the introspection layer observes the serving
// path, it must not change or approximate it — and with the fold of
// the runs' events, failures included.
func TestStatementTotalsMatchResults(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 40, 80, 92, 70)
	insertSeries(t, db, "IBM", 10000, 10, 12, 9, 7, 14, 16, 12)
	db.SetEventRingCapacity(64) // more than the runs below: keep every event

	variants := []RunOptions{
		{},                    // cached partition, kernel path
		{NoCache: true},       // transient partition
		{NoKernel: true},      // interpreter
		{Executor: NaiveExec}, // naive executor (feeds the savings metric)
		{Overlap: true},       // overlapping occurrences
	}
	var want statementTotals
	naiveRuns := int64(0)
	for _, sql := range []string{introspectSQL1, introspectSQL2} {
		for _, opts := range variants {
			q, err := db.Prepare(sql)
			if err != nil {
				t.Fatal(err)
			}
			res, err := q.RunWith(opts)
			if err != nil {
				t.Fatal(err)
			}
			want.Calls++
			want.Rows += int64(len(res.Rows))
			want.PredEvals += res.Stats.PredEvals
			want.Rollbacks += res.Stats.Rollbacks
			want.Matches += int64(res.Stats.Matches)
			if res.PlanCached() {
				want.PlanHits++
			}
			if res.PartitionCached() {
				want.PartHits++
			}
			if opts.Executor == NaiveExec {
				naiveRuns++
			}
		}
	}

	// One failing run: a budget error counts as an error, not a call.
	q, err := db.Prepare(introspectSQL2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.RunWith(RunOptions{MaxMatches: 1}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("MaxMatches run: err = %v, want ErrBudgetExceeded", err)
	}
	want.Errors++

	got := db.statementTotals()
	if got.Calls != want.Calls {
		t.Errorf("calls: stats %d, results %d", got.Calls, want.Calls)
	}
	if got.Errors != want.Errors {
		t.Errorf("errors: stats %d, want %d", got.Errors, want.Errors)
	}
	if got.Rows != want.Rows {
		t.Errorf("rows: stats %d, results %d", got.Rows, want.Rows)
	}
	if got.PredEvals != want.PredEvals {
		t.Errorf("pred-evals: stats %d, results %d", got.PredEvals, want.PredEvals)
	}
	if got.Rollbacks != want.Rollbacks {
		t.Errorf("rollbacks: stats %d, results %d", got.Rollbacks, want.Rollbacks)
	}
	if got.Matches != want.Matches {
		t.Errorf("matches: stats %d, results %d", got.Matches, want.Matches)
	}
	if got.PlanHits != want.PlanHits {
		t.Errorf("plan cache hits: stats %d, results %d", got.PlanHits, want.PlanHits)
	}
	if got.PartHits != want.PartHits {
		t.Errorf("partition cache hits: stats %d, results %d", got.PartHits, want.PartHits)
	}
	// Every call is either a kernel or an interpreter run; the NoKernel
	// variants are necessarily interpreter runs.
	if got.KernelRuns+got.InterpRuns != want.Calls {
		t.Errorf("kernel %d + interpreter %d runs != %d calls",
			got.KernelRuns, got.InterpRuns, want.Calls)
	}
	if got.InterpRuns < 2 {
		t.Errorf("interpreter runs %d, want >= 2 (the NoKernel variants)", got.InterpRuns)
	}
	// Two statements → two entries; the case/whitespace-normalized keys.
	if len(got.sortKeys) != 2 {
		t.Fatalf("statement keys %q, want 2 entries", got.sortKeys)
	}
	for _, key := range got.sortKeys {
		if key != strings.ToLower(key) {
			t.Errorf("statement key not case-folded: %q", key)
		}
	}
	// Both statements ran naive and optimized, so the savings metric is
	// populated (OPS must not do more probe work than naive here).
	for _, s := range db.StatementStats() {
		if s.NaiveCalls != naiveRuns/2 {
			t.Errorf("entry %q naive calls = %d, want %d", s.SQL, s.NaiveCalls, naiveRuns/2)
		}
		if s.OPSSavingsPct < 0 {
			t.Errorf("entry %q OPS savings %.1f%% negative", s.SQL, s.OPSSavingsPct)
		}
	}

	// Statement stats are a fold over the per-execution events.
	evs := db.RecentEvents()
	if n := int64(len(evs)); n != want.Calls+want.Errors {
		t.Fatalf("%d events retained, want %d runs", n, want.Calls+want.Errors)
	}
	if fold := foldEvents(evs); !reflect.DeepEqual(fold, got) {
		t.Errorf("event fold disagrees with the statement stats:\nevents %+v\nstats  %+v", fold, got)
	}

	// Reset drops the counters but keeps tracking enabled.
	db.ResetStatementStats()
	if n := len(db.StatementStats()); n != 0 {
		t.Fatalf("%d entries after reset", n)
	}
	if _, err := db.Query(introspectSQL2); err != nil {
		t.Fatal(err)
	}
	if got := db.statementTotals(); got.Calls != 1 {
		t.Errorf("calls after reset = %d, want 1", got.Calls)
	}
}

// foldEvents sums events the way StmtStats.Record folds each one into
// its statement: a failure counts as an error only, a closed stream's
// event adds nothing else, a successful run adds its counters.
func foldEvents(evs []obs.Event) statementTotals {
	var t statementTotals
	seen := map[string]bool{}
	for _, ev := range evs {
		if !seen[ev.SQL] {
			seen[ev.SQL] = true
			t.sortKeys = append(t.sortKeys, ev.SQL)
		}
		if ev.ErrorKind != "" {
			t.Errors++
			continue
		}
		if ev.Stream {
			continue
		}
		t.Calls++
		t.Rows += ev.Rows
		t.Scanned += ev.RowsScanned
		t.PredEvals += ev.PredEvals
		t.Rollbacks += ev.Rollbacks
		t.Matches += ev.Matches
		if ev.PlanCached {
			t.PlanHits++
		}
		if ev.PartitionCached {
			t.PartHits++
		}
		if ev.Kernel {
			t.KernelRuns++
		} else {
			t.InterpRuns++
		}
	}
	sort.Strings(t.sortKeys)
	return t
}

// TestStatementStatsDisabled checks the introspection-off configuration
// (capacity 0): the serving path must keep working with no entries
// tracked.
func TestStatementStatsDisabled(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)
	db.SetStatementStatsCapacity(0)
	res, err := db.Query(introspectSQL1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(res.Rows))
	}
	if n := len(db.StatementStats()); n != 0 {
		t.Errorf("%d entries tracked while disabled", n)
	}
	// Streams must also serve with tracking disabled (nil entry path).
	st, err := db.Stream(introspectSQL2, StreamOptions{}, func(storage.Row) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push(storage.NewString("A"), storage.NewDateDays(1), storage.NewFloat(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-enable and confirm tracking resumes.
	db.SetStatementStatsCapacity(16)
	if _, err := db.Query(introspectSQL1); err != nil {
		t.Fatal(err)
	}
	if got := db.statementTotals(); got.Calls != 1 {
		t.Errorf("calls after re-enable = %d, want 1", got.Calls)
	}
}

func TestSlowQueryLogRetention(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 40, 80, 92, 70)
	db.SetSlowQueryThreshold(time.Nanosecond) // everything is slow

	for i := 0; i < 3; i++ {
		if _, err := db.Query(introspectSQL1); err != nil {
			t.Fatal(err)
		}
	}
	recs := db.SlowLog()
	if len(recs) != 3 {
		t.Fatalf("slow log has %d records, want 3", len(recs))
	}
	// Most recent first, trace IDs monotone.
	if recs[0].TraceID != 3 || recs[2].TraceID != 1 {
		t.Errorf("record order wrong: trace IDs %d..%d", recs[0].TraceID, recs[2].TraceID)
	}
	r := recs[0]
	if !r.Slow || r.SQL == "" || r.Executor == "" || r.DurationNs <= 0 || r.Rows != 1 {
		t.Errorf("record fields wrong: %+v", r)
	}
	// The report is the rendered EXPLAIN ANALYZE layout, captured without
	// re-executing: plan, cache outcome, phases, counters.
	for _, want := range []string{"plan: cached", "Phases:", "Executor", "PredEvals="} {
		if !strings.Contains(r.Report, want) {
			t.Errorf("report missing %q:\n%s", want, r.Report)
		}
	}
	// Slow queries always retain their trace.
	tr := db.TraceByID(r.TraceID)
	if tr == nil || !tr.Slow || len(tr.Spans) == 0 {
		t.Fatalf("retained slow trace wrong: %+v", tr)
	}

	// The kept ring wraps at its fixed capacity, oldest records first.
	for i := 0; i < keptEventCapacity; i++ {
		if _, err := db.Query(introspectSQL1); err != nil {
			t.Fatal(err)
		}
	}
	recs = db.SlowLog()
	if len(recs) != keptEventCapacity || recs[0].TraceID != 3+keptEventCapacity || recs[len(recs)-1].TraceID != 4 {
		t.Errorf("after wrap: %d records, trace IDs %d..%d; want %d, %d..4",
			len(recs), recs[0].TraceID, recs[len(recs)-1].TraceID, keptEventCapacity, 3+keptEventCapacity)
	}
	if db.TraceByID(1) != nil {
		t.Error("evicted trace 1 still resolves")
	}

	db.ResetIntrospection()
	if len(db.SlowLog()) != 0 || len(db.RetainedTraces()) != 0 || len(db.StatementStats()) != 0 || len(db.RecentEvents()) != 0 {
		t.Error("ResetIntrospection left state behind")
	}
}

// TestSlowLogSurvivesEventFlood: one slow run and one contained panic
// stay in the slow log, their traces resolvable, after more than twice
// the recent ring's capacity of fast runs — whether or not the flight
// recorder (which feeds the recent ring) is on.
func TestSlowLogSurvivesEventFlood(t *testing.T) {
	for _, recorder := range []bool{true, false} {
		t.Run(fmt.Sprintf("recorder=%v", recorder), func(t *testing.T) {
			defer fault.Reset()
			db := quoteDB(t)
			insertSeries(t, db, "INTC", 10000, 60, 70, 55, 40, 80, 92, 70)
			db.SetFlightRecorder(recorder)
			q, err := db.Prepare(introspectSQL1)
			if err != nil {
				t.Fatal(err)
			}
			// Only the run held at the cluster fault point crosses the
			// threshold.
			db.SetSlowQueryThreshold(200 * time.Millisecond)
			if err := fault.Arm("sqlts.execute.cluster", fault.Action{Delay: 250 * time.Millisecond, Times: 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := q.Run(); err != nil {
				t.Fatal(err)
			}
			if err := fault.Arm("sqlts.execute.cluster", fault.Action{Panic: "flood panic", Times: 1}); err != nil {
				t.Fatal(err)
			}
			var pe *PanicError
			if _, err := q.Run(); !errors.As(err, &pe) {
				t.Fatalf("err = %v; want PanicError", err)
			}
			fault.Reset()
			const flood = 600 // > 2 × defaultEventRingCapacity
			for i := 0; i < flood; i++ {
				if _, err := q.Run(); err != nil {
					t.Fatal(err)
				}
			}

			var slow, panicked *obs.Event
			for _, ev := range db.SlowLog() {
				switch {
				case ev.Slow && ev.ErrorKind == "":
					slow = &ev
				case ev.ErrorKind == "panic" && strings.Contains(ev.Report, "flood panic"):
					panicked = &ev
				}
			}
			if slow == nil || panicked == nil {
				t.Fatalf("slow log lost a record after %d fast runs: slow=%v panic=%v", flood, slow != nil, panicked != nil)
			}
			for _, ev := range []*obs.Event{slow, panicked} {
				if tr := db.TraceByID(ev.TraceID); tr == nil || len(tr.Spans) == 0 {
					t.Errorf("trace %d (%s) no longer resolves to spans", ev.TraceID, ev.ErrorKind)
				}
			}
		})
	}
}

func TestTraceSampling(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)
	db.SetTraceSampleRate(3)

	q, err := db.Prepare(introspectSQL1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := q.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Executions 0, 3 and 6 are sampled: one trace per rate window.
	traces := db.RetainedTraces()
	if len(traces) != 3 {
		t.Fatalf("retained %d traces, want 3 (1-in-3 of 7 runs)", len(traces))
	}
	if traces[0].TraceID <= traces[1].TraceID {
		t.Error("traces not most-recent-first")
	}
	for _, tr := range traces {
		if tr.Slow || tr.Report != "" {
			t.Errorf("sampled trace %d marked slow or carrying a report", tr.TraceID)
		}
		if len(tr.Spans) == 0 {
			t.Errorf("trace %d has no spans", tr.TraceID)
		}
		if got := db.TraceByID(tr.TraceID); got == nil || got.TraceID != tr.TraceID || got.Time != tr.Time {
			t.Errorf("TraceByID(%d) mismatch", tr.TraceID)
		}
	}
	// Sampled runs are not slow: the slow log stays empty.
	if n := len(db.SlowLog()); n != 0 {
		t.Errorf("slow log holds %d sampled runs", n)
	}
	// The statement entry points at its most recent trace.
	snaps := db.StatementStats()
	if len(snaps) != 1 || snaps[0].LastTraceID != traces[0].TraceID {
		t.Errorf("last_trace_id = %d, want %d", snaps[0].LastTraceID, traces[0].TraceID)
	}

	// Rate 0 turns sampling off.
	db.SetTraceSampleRate(0)
	for i := 0; i < 5; i++ {
		if _, err := q.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(db.RetainedTraces()); n != 3 {
		t.Errorf("retained %d traces after disabling, want 3", n)
	}
	if db.TraceByID(99999) != nil {
		t.Error("TraceByID of unknown id must be nil")
	}
}

// TestStreamStatementStats checks that continuous queries surface in
// the statement table: open-stream gauge, exact push/match/pruned
// counts (also cross-checked against the registry counters, which are
// fed from the same deltas).
func TestStreamStatementStats(t *testing.T) {
	db := quoteDB(t)
	matches := 0
	st, err := db.Stream(introspectSQL2, StreamOptions{}, func(storage.Row) error {
		matches++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := streamSnapshot(t, db)
	if snap.StreamsOpen != 1 {
		t.Fatalf("streams_open = %d, want 1", snap.StreamsOpen)
	}
	// Alternating prices: every (low, high) pair matches Y.price > X.price,
	// and completed matches advance the window so old rows prune.
	const pushes = 40
	for i := 0; i < pushes; i++ {
		price := 1.0
		if i%2 == 1 {
			price = 2.0
		}
		if err := st.Push(storage.NewString("A"), storage.NewDateDays(int64(i)), storage.NewFloat(price)); err != nil {
			t.Fatal(err)
		}
	}
	snap = streamSnapshot(t, db)
	if snap.StreamPushes != pushes {
		t.Errorf("stream_pushes = %d, want %d", snap.StreamPushes, pushes)
	}
	if matches == 0 || snap.StreamMatches != int64(matches) {
		t.Errorf("stream_matches = %d, sink saw %d", snap.StreamMatches, matches)
	}
	if snap.PrunedRows <= 0 {
		t.Errorf("stream_pruned_rows = %d, want > 0 (window advanced past %d matches)",
			snap.PrunedRows, matches)
	}
	// The registry counters and the statement entry are fed from the same
	// push path — they must agree exactly.
	var metrics strings.Builder
	if err := db.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	for metric, want := range map[string]int64{
		"sqlts_stream_pushes_total":      snap.StreamPushes,
		"sqlts_stream_matches_total":     snap.StreamMatches,
		"sqlts_stream_pruned_rows_total": snap.PrunedRows,
		"sqlts_streams_open":             snap.StreamsOpen,
	} {
		line := fmt.Sprintf("%s %d", metric, want)
		if !strings.Contains(metrics.String(), line) {
			t.Errorf("exposition missing %q", line)
		}
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if snap = streamSnapshot(t, db); snap.StreamsOpen != 0 {
		t.Errorf("streams_open after Close = %d, want 0", snap.StreamsOpen)
	}
}

// streamSnapshot returns the single statement entry of the stream tests.
func streamSnapshot(t *testing.T, db *DB) (snap struct {
	StreamsOpen, StreamPushes, StreamMatches, PrunedRows int64
}) {
	t.Helper()
	snaps := db.StatementStats()
	if len(snaps) != 1 {
		t.Fatalf("%d statement entries, want 1", len(snaps))
	}
	snap.StreamsOpen = snaps[0].StreamsOpen
	snap.StreamPushes = snaps[0].StreamPushes
	snap.StreamMatches = snaps[0].StreamMatches
	snap.PrunedRows = snaps[0].PrunedRows
	return snap
}
