package sqlts

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"sqlts/internal/core"
	"sqlts/internal/engine"
	"sqlts/internal/obs"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// StreamOptions configure a continuous query.
type StreamOptions struct {
	// Overlap reports overlapping occurrences (engine.SkipToNextRow).
	Overlap bool
	// LastRowSkip enables the last-row-skip runtime extension.
	LastRowSkip bool
	// MaxBuffer bounds the per-cluster retained window (0 = unbounded);
	// matches longer than the bound are abandoned.
	MaxBuffer int
	// NoKernel disables the compiled columnar predicate kernels for this
	// stream and interprets every probe (see RunOptions.NoKernel).
	NoKernel bool
	// NoVectorize disables per-row verdict memoization in the cluster
	// matchers (the streaming analogue of the batch mask kernels; see
	// RunOptions.NoVectorize). Matches and statistics are identical
	// either way.
	NoVectorize bool
	// Context, when non-nil, cancels the stream cooperatively: Push
	// checks it on entry and the per-cluster matchers check it at
	// amortized checkpoints, so even a single Push that triggers a long
	// match cascade stops promptly. A canceled stream returns
	// ErrCanceled/ErrDeadlineExceeded from Push/Close.
	Context context.Context
}

// Stream is a continuous (push-based) execution of a prepared SQL-TS
// query: tuples are pushed in arrival order and the SELECT output row of
// every completed match is delivered to the sink immediately. Tuples are
// routed to one incremental matcher per CLUSTER BY key; within each
// cluster the SEQUENCE BY values must arrive in non-decreasing order
// (out-of-order input is rejected — a continuous query cannot re-sort an
// unbounded past).
type Stream struct {
	q        *Query
	opts     StreamOptions
	sink     func(storage.Row) error
	tables   *core.Tables // stream shift/next tables, shared by all clusters
	clusters map[string]*clusterStream
	seqIdx   []int
	cluIdx   []int
	sinkErr  error
	closed   bool

	// rc carries the stream's cancellation state (nil without a
	// Context); failed poisons the stream permanently after a contained
	// panic — the matcher state is unusable, so every later Push/Close
	// returns the same PanicError.
	rc     *runControl
	failed error

	// entry is the statement-stats bucket pushes and matches accumulate
	// into (nil when statement tracking is disabled); pushSeq drives the
	// 1-in-16 push-latency sampling.
	entry   *obs.StmtStats
	pushSeq uint64

	// flight is the stream's active-query registration (nil with the
	// recorder off). It stays registered for the stream's whole lifetime
	// — open streams are in-flight work an operator can see and kill.
	flight *obs.Flight

	// lastCS/lastClu memoize the previous push's cluster: arrivals
	// usually stay in one cluster for long runs, so comparing the
	// cluster-by values against the previous row skips the key-string
	// build and map lookup (the steady-state path's only allocation).
	lastCS  *clusterStream
	lastClu storage.Row
}

type clusterStream struct {
	s       *engine.Streamer
	lastSeq storage.Row // last sequence-by key values

	// Per-match scratch, recycled between emissions to keep the
	// steady-state streaming path allocation-free.
	spanScratch []pattern.Span
	rowScratch  storage.Row
}

// OpenStream starts a continuous execution of the query. The sink is
// called synchronously from Push/Close with each match's output row; a
// sink error aborts the stream (surfaced by the failing Push/Close).
// The row passed to the sink is only valid for the duration of the call
// — it is recycled for the next match; sinks that retain it must copy
// (storage.Row.Clone).
//
// The stream shift/next tables are computed once per plan and shared by
// every stream (and every per-cluster matcher) over it, so repeated
// OpenStream calls on a cached plan skip that work too.
func (q *Query) OpenStream(opts StreamOptions, sink func(storage.Row) error) (*Stream, error) {
	compiled := q.plan.compiled
	if compiled.Pattern == nil {
		return nil, fmt.Errorf("sqlts: OpenStream requires a sequence pattern query")
	}
	fl := q.db.registerFlight(q.plan.key, "stream", int64(q.plan.revision), obs.PhaseStreaming)
	st := &Stream{
		q:        q,
		opts:     opts,
		sink:     sink,
		tables:   q.plan.streamTabs(),
		clusters: map[string]*clusterStream{},
		entry:    q.db.stmts.Get(q.plan.key),
		flight:   fl,
		rc:       newRunControl(opts.Context, RunOptions{}, fl),
	}
	for _, col := range compiled.SequenceBy {
		i, _ := compiled.Schema.ColumnIndex(col)
		st.seqIdx = append(st.seqIdx, i)
	}
	for _, col := range compiled.ClusterBy {
		i, _ := compiled.Schema.ColumnIndex(col)
		st.cluIdx = append(st.cluIdx, i)
	}
	q.db.metrics.streamsOpen.Inc()
	st.entry.StreamOpened()
	return st, nil
}

// Stream prepares sql (through the plan cache) and opens a continuous
// execution of it — the push-based analogue of DB.Query. Repeated
// Stream calls with the same statement text share one compiled plan.
func (db *DB) Stream(sql string, opts StreamOptions, sink func(storage.Row) error) (*Stream, error) {
	q, err := db.Prepare(sql)
	if err != nil {
		db.metrics.queryErrors.Inc()
		return nil, err
	}
	return q.OpenStream(opts, sink)
}

// contain is the stream's panic-containment boundary, installed with
// defer around every advance of the matchers. An engine.Interrupt
// becomes the push's error (the stream stays usable — a later Push under
// an uncanceled context may proceed); any other panic poisons the stream
// permanently with a *PanicError carrying the captured stack.
func (st *Stream) contain(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if in, ok := r.(engine.Interrupt); ok {
		*err = in.Err
		return
	}
	pe := &PanicError{Statement: st.q.plan.key, Value: r, Stack: debug.Stack()}
	st.failed = pe
	st.q.db.metrics.queryPanics.Inc()
	*err = pe
}

// Push delivers one tuple (in table column order). It returns the first
// sink error, an ordering violation, a schema mismatch, the context's
// typed cancellation error, or the PanicError that poisoned the stream.
func (st *Stream) Push(vals ...storage.Value) (err error) {
	if st.closed {
		return fmt.Errorf("sqlts: Push on a closed stream")
	}
	if st.failed != nil {
		return st.failed
	}
	if st.sinkErr != nil {
		return st.sinkErr
	}
	if e := st.rc.check(); e != nil {
		return e
	}
	defer st.contain(&err)
	schema := st.q.plan.compiled.Schema
	if len(vals) != schema.Len() {
		return fmt.Errorf("sqlts: Push arity %d, want %d", len(vals), schema.Len())
	}
	row := make(storage.Row, len(vals))
	for i, v := range vals {
		if !v.IsNull() && v.Type() != schema.Columns[i].Type {
			cv, err := v.Coerce(schema.Columns[i].Type)
			if err != nil {
				return fmt.Errorf("sqlts: Push column %s: %w", schema.Columns[i].Name, err)
			}
			v = cv
		}
		row[i] = v
	}

	m := st.q.db.metrics
	m.streamPushes.Inc()
	st.flight.TickPushes(1)
	st.flight.TickRows(1)
	// Per-push latency is sampled 1 push in 16: pushes are ~µs-scale, so
	// two clock reads on every one would be a measurable tax on the
	// steady-state streaming path. Push and pruned-row *counts* are
	// exact; only the latency histograms subsample.
	var pushStart time.Time
	sampled := st.pushSeq&15 == 0
	st.pushSeq++
	if sampled {
		pushStart = time.Now()
	}
	cs := st.lastCS
	if cs == nil || !sameCluster(st.lastClu, row, st.cluIdx) {
		key := st.clusterKey(row)
		cs = st.clusters[key]
		if cs == nil {
			cs = st.newClusterStream()
			st.clusters[key] = cs
			m.streamClusters.Inc()
		}
		st.lastCS = cs
	}
	st.lastClu = row
	// Enforce SEQUENCE BY arrival order within the cluster.
	if len(st.seqIdx) > 0 && cs.lastSeq != nil {
		for _, si := range st.seqIdx {
			c, err := cs.lastSeq[si].Compare(row[si])
			if err != nil {
				return fmt.Errorf("sqlts: sequence-by comparison: %w", err)
			}
			if c > 0 {
				return fmt.Errorf("sqlts: out-of-order tuple for cluster %q: %s after %s",
					st.clusterKey(row), row[si], cs.lastSeq[si])
			}
			if c < 0 {
				break
			}
		}
	}
	cs.lastSeq = row
	prunedBefore := cs.s.Pruned()
	if err := cs.s.Push(row); err != nil {
		return err
	}
	pruned := cs.s.Pruned() - prunedBefore
	if pruned > 0 {
		m.streamPrunedRows.Add(pruned)
	}
	durNs := int64(-1) // negative = latency not sampled this push
	if sampled {
		d := time.Since(pushStart)
		m.streamPushDuration.Observe(d.Seconds())
		durNs = d.Nanoseconds()
	}
	st.entry.RecordPush(durNs, pruned)
	return st.sinkErr
}

func (st *Stream) newClusterStream() *clusterStream {
	cs := &clusterStream{}
	policy := engine.SkipPastLastRow
	if st.opts.Overlap {
		policy = engine.SkipToNextRow
	}
	cs.s = engine.NewStreamer(st.q.plan.compiled.Pattern, engine.StreamConfig{
		Policy:      policy,
		LastRowSkip: st.opts.LastRowSkip,
		MaxBuffer:   st.opts.MaxBuffer,
		Tables:      st.tables,
		Vectorize:   !st.opts.NoKernel && !st.opts.NoVectorize,
		// This emit callback consumes Spans synchronously, so the
		// matcher may recycle them between emissions.
		ReuseSpans: true,
	}, func(m engine.Match) { st.emitMatch(cs, m) })
	if st.rc != nil {
		cs.s.SetInterrupt(st.rc.interrupt())
	}
	if !st.opts.NoKernel {
		cs.s.UseKernel(st.q.plan.kernel)
	}
	return cs
}

// emitMatch is each cluster matcher's emit callback: it runs
// synchronously from Push/Flush for every completed match.
func (st *Stream) emitMatch(cs *clusterStream, m engine.Match) {
	if st.sinkErr != nil {
		return
	}
	st.q.db.metrics.streamMatches.Inc()
	st.entry.RecordPushMatch()
	st.flight.TickMatches(1)
	// Evaluate output expressions against the matcher's retained
	// window (still covering the match during emission). References
	// past the match end (e.g. a trailing X.next) resolve to NULL if
	// that tuple has not arrived yet — streaming emits eagerly.
	window, base := cs.s.Window()
	if cap(cs.spanScratch) < len(m.Spans) {
		cs.spanScratch = make([]pattern.Span, len(m.Spans))
	}
	spans := cs.spanScratch[:len(m.Spans)]
	for k, sp := range m.Spans {
		spans[k] = pattern.Span{}
		if sp.Set {
			spans[k] = pattern.Span{Start: sp.Start - base, End: sp.End - base, Set: true}
		}
	}
	row, err := st.q.plan.compiled.EvalSelectInto(cs.rowScratch, window, spans)
	if err != nil {
		st.sinkErr = err
		return
	}
	cs.rowScratch = row
	if err := st.sink(row); err != nil {
		st.sinkErr = err
	}
}

// sameCluster reports whether two rows share cluster-by values; any
// comparison error falls back to the keyed path.
func sameCluster(prev, cur storage.Row, idx []int) bool {
	for _, i := range idx {
		c, err := prev[i].Compare(cur[i])
		if err != nil || c != 0 {
			return false
		}
	}
	return true
}

func (st *Stream) clusterKey(row storage.Row) string {
	if len(st.cluIdx) == 0 {
		return ""
	}
	var b strings.Builder
	for _, i := range st.cluIdx {
		b.WriteString(row[i].String())
		b.WriteByte(0)
	}
	return b.String()
}

// Close flushes every cluster (completing trailing-star matches) and
// returns the first error encountered. The stream gauges are released
// whatever happens during the flush — including a contained panic.
func (st *Stream) Close() (err error) {
	if st.closed {
		return nil
	}
	st.closed = true
	defer func() {
		st.q.db.metrics.streamClusters.Add(-int64(len(st.clusters)))
		st.q.db.metrics.streamsOpen.Dec()
		st.entry.StreamClosed()
		st.q.db.deregisterFlight(st.flight)
		st.q.db.emitStreamEvent(st, err)
	}()
	if st.failed != nil {
		return st.failed
	}
	// A canceled stream cannot complete its trailing matches: report the
	// cancellation instead of silently flushing a truncated window.
	if err := st.rc.check(); err != nil {
		return err
	}
	if err := st.flushAll(); err != nil {
		return err
	}
	return st.sinkErr
}

// flushAll flushes the cluster matchers inside the containment boundary
// (a trailing-star completion evaluates predicates, which may hit the
// interrupt checkpoint or panic).
func (st *Stream) flushAll() (err error) {
	defer st.contain(&err)
	for _, cs := range st.clusters {
		cs.s.Flush()
	}
	return nil
}

// Stats aggregates runtime counters across all clusters.
func (st *Stream) Stats() engine.Stats {
	var out engine.Stats
	for _, cs := range st.clusters {
		out.Add(cs.s.Stats())
	}
	return out
}
