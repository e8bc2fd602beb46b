package sqlts

// Statement-level introspection: per-statement statistics (keyed by the
// plan cache's normalized SQL), and the slow-query log and sampled
// lifecycle traces (exportable as Chrome trace-event JSON) as views of
// the ring of kept events. Everything here is fed from the serving
// path (observe.go, flight.go) and surfaced over HTTP by
// DB.DebugHandler (debug.go), programmatically by the DB methods below,
// and interactively by the REPL's \stats and \slowlog.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"sqlts/internal/obs"
)

// defaultStatementCapacity bounds the distinct statements tracked;
// tune with SetStatementStatsCapacity.
const defaultStatementCapacity = 256

// StatementStats snapshots the per-statement statistics, hottest first
// (sorted by total execution time). Statements are keyed exactly like
// the plan cache — case-folded, whitespace-normalized SQL — so every
// formatting/case variant of a query aggregates into one line. With
// more distinct statements than the configured capacity, the tail
// aggregates under obs.OverflowKey.
func (db *DB) StatementStats() []obs.StmtSnapshot {
	return db.stmts.Snapshots()
}

// ResetStatementStats drops all per-statement counters (capacity and
// sampling knobs are kept).
func (db *DB) ResetStatementStats() { db.stmts.Reset() }

// SetStatementStatsCapacity bounds the number of distinct statements
// tracked (default 256; overflow aggregates into one catch-all entry).
// 0 disables statement tracking entirely — queries then skip the store
// update and trace sampling.
func (db *DB) SetStatementStatsCapacity(n int) { db.stmts.SetCapacity(n) }

// SetTraceSampleRate retains one full lifecycle trace per statement
// every n executions (the first execution and every n-th after it),
// retrievable via TraceByID / RetainedTraces / the /debug/trace
// endpoint. 0 (the default) disables sampling; slow and panicked runs
// always retain their trace regardless.
func (db *DB) SetTraceSampleRate(n int) {
	if n < 0 {
		n = 0
	}
	db.traceSampleRate.Store(int64(n))
}

// SlowLog returns the retained slow and panicked executions, most
// recent first: the kept events carrying a report — the plan annotated
// with the run for executions at or over the SetSlowQueryThreshold
// duration, the panic value and stack for contained panics.
func (db *DB) SlowLog() []obs.Event {
	return db.keptWhere(func(ev *obs.Event) bool { return ev.Report != "" })
}

// RetainedTraces lists the kept events carrying a lifecycle trace
// (sampled, slow or panicked runs), most recent first.
func (db *DB) RetainedTraces() []obs.Event {
	return db.keptWhere(func(ev *obs.Event) bool { return ev.TraceID != 0 })
}

// keptWhere returns the kept events satisfying keep, most recent first
// (an empty, non-nil slice when none does).
func (db *DB) keptWhere(keep func(*obs.Event) bool) []obs.Event {
	out := []obs.Event{}
	for _, ev := range db.kept.Snapshot() {
		if keep(&ev) {
			out = append(out, ev)
		}
	}
	return out
}

// TraceByID returns the kept event whose trace has the given ID, or nil.
func (db *DB) TraceByID(id uint64) *obs.Event {
	for _, ev := range db.kept.Snapshot() {
		if id != 0 && ev.TraceID == id {
			return &ev
		}
	}
	return nil
}

// ResetIntrospection clears the statement stats and both event rings
// (the recent tail and the kept slow-log/trace events) in one call;
// knobs and thresholds are kept.
func (db *DB) ResetIntrospection() {
	db.stmts.Reset()
	db.kept.Reset()
	db.flight.recent.Reset()
}

// WriteStatementStats renders the statement table as aligned text,
// hottest statements first — the /debug/statements?format=text and
// REPL \stats view.
func (db *DB) WriteStatementStats(w io.Writer) error {
	stats := db.StatementStats()
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %6s %10s %10s %10s %12s %8s %7s %7s  %s\n",
		"calls", "errs", "p50", "p95", "p99", "pred-evals", "saves%", "plan%", "part%", "statement")
	for _, s := range stats {
		saves := "-"
		if s.OPSSavingsPct != 0 {
			saves = fmt.Sprintf("%.1f", s.OPSSavingsPct)
		}
		fmt.Fprintf(&b, "%8d %6d %10s %10s %10s %12d %8s %7s %7s  %s\n",
			s.Calls, s.Errors,
			time.Duration(s.P50Ns).Round(time.Microsecond),
			time.Duration(s.P95Ns).Round(time.Microsecond),
			time.Duration(s.P99Ns).Round(time.Microsecond),
			s.PredEvals, saves,
			pctOf(s.PlanCacheHits, s.Calls), pctOf(s.PartitionCacheHits, s.Calls),
			oneLine(s.SQL, 80))
		if s.StreamPushes > 0 || s.StreamsOpen > 0 {
			fmt.Fprintf(&b, "%8s streams: open=%d pushes=%d matches=%d pruned=%d push-p50=%s push-p99=%s\n",
				"", s.StreamsOpen, s.StreamPushes, s.StreamMatches, s.PrunedRows,
				time.Duration(s.PushP50Ns).Round(time.Microsecond),
				time.Duration(s.PushP99Ns).Round(time.Microsecond))
		}
		if s.Canceled+s.DeadlineExceeded+s.BudgetExceeded+s.Panics+s.AdmissionRejected+s.Killed+s.AdmissionWaitNs > 0 {
			fmt.Fprintf(&b, "%8s errors: canceled=%d killed=%d deadline=%d budget=%d panics=%d rejected=%d adm-wait=%s\n",
				"", s.Canceled, s.Killed, s.DeadlineExceeded, s.BudgetExceeded, s.Panics, s.AdmissionRejected,
				time.Duration(s.AdmissionWaitNs).Round(time.Microsecond))
		}
	}
	if len(stats) == 0 {
		b.WriteString("(no statements tracked)\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteSlowLog renders the slow-query log, most recent first. Verbose
// appends each record's full report (plan, phases, clusters — or the
// panic stack).
func (db *DB) WriteSlowLog(w io.Writer, verbose bool) error {
	evs := db.SlowLog()
	var b strings.Builder
	if len(evs) == 0 {
		b.WriteString("(slow-query log empty — set a threshold with SetSlowQueryThreshold)\n")
	}
	for _, ev := range evs {
		kind := "slow"
		if ev.ErrorKind != "" {
			kind = ev.ErrorKind
		}
		fmt.Fprintf(&b, "#%d %s  %s %s  executor=%s rows=%d scanned=%d pred-evals=%d rollbacks=%d matches=%d\n  %s\n",
			ev.TraceID, ev.Time.Format(time.RFC3339), kind, time.Duration(ev.DurationNs).Round(time.Microsecond),
			ev.Executor, ev.Rows, ev.RowsScanned, ev.PredEvals, ev.Rollbacks, ev.Matches, oneLine(ev.SQL, 120))
		if verbose {
			b.WriteString(indent(ev.Report, "  "))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func pctOf(part, total int64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", 100*float64(part)/float64(total))
}

// statementTotals sums the per-statement counters — the quantities the
// differential acceptance test checks against summed Result counters.
type statementTotals struct {
	Calls, Errors, Rows, Scanned    int64
	PredEvals, Rollbacks, Matches   int64
	PlanHits, PartHits              int64
	KernelRuns, InterpRuns          int64
	Pushes, PushMatches, PrunedRows int64
	sortKeys                        []string
}

func (db *DB) statementTotals() statementTotals {
	var t statementTotals
	for _, s := range db.StatementStats() {
		t.Calls += s.Calls
		t.Errors += s.Errors
		t.Rows += s.Rows
		t.Scanned += s.RowsScanned
		t.PredEvals += s.PredEvals
		t.Rollbacks += s.Rollbacks
		t.Matches += s.Matches
		t.PlanHits += s.PlanCacheHits
		t.PartHits += s.PartitionCacheHits
		t.KernelRuns += s.KernelRuns
		t.InterpRuns += s.InterpreterRuns
		t.Pushes += s.StreamPushes
		t.PushMatches += s.StreamMatches
		t.PrunedRows += s.PrunedRows
		t.sortKeys = append(t.sortKeys, s.SQL)
	}
	sort.Strings(t.sortKeys)
	return t
}
