package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"sqlts"
	"sqlts/internal/storage"
)

// workload is one closed-loop traffic mix. A fresh value is made for
// every set-up repetition.
type workload interface {
	// setup builds the DB the run measures; the benchmark times it.
	setup(r *run) error
	// references computes, untimed, what the gates compare against.
	references(r *run) error
	// step runs one unit of the loop: one query, or one round.
	step(r *run, traced bool)
	// blockSteps is how many steps a trace block holds.
	blockSteps() int
	// epochSteps is how many steps an epoch holds, a multiple of
	// blockSteps. The measured loop ends on an epoch boundary and reads
	// live_heap_mb at the end of the first epoch, so that neither
	// depends on how many steps fit in the run.
	epochSteps() int
	// restore runs between epochs, untimed: it drops the state the
	// epoch's steps grew, so that later steps see the state earlier
	// ones saw.
	restore(r *run) error
	// finish runs the end-of-run gates.
	finish(r *run)
}

// setupReps is how many times a workload sets up; setup_s is their
// median. The quote table's set-up takes about thirty times the DJIA's.
func setupReps(name string) int {
	if strings.HasPrefix(name, "quotes") {
		return 3
	}
	return 25
}

func workloadNames() []string {
	return []string{"djia-repeat", "djia-adhoc", "quotes-repeat", "quotes-live"}
}

func newWorkload(name string, seed int64) workload {
	djia, quotes := dataSet{seed: seed}, dataSet{quotes: true, seed: seed}
	switch name {
	case "djia-repeat":
		return &repeatQuery{dataSet: djia}
	case "djia-adhoc":
		return &adhocQuery{dataSet: djia}
	case "quotes-repeat":
		return &repeatQuery{dataSet: quotes}
	case "quotes-live":
		quotes.live = true
		return &liveQuery{dataSet: quotes}
	}
	return nil
}

// run is the state of one benchmark run.
type run struct {
	cfg    config
	db     *sqlts.DB
	stream *sqlts.Stream
	// streamed counts the standing stream's output rows by rowKey.
	streamed  map[string]int
	streamedN int
	tr        *tracer // non-nil in a traced run

	attempted, failed int64
	failures          []string

	queryMs  samples // every untraced query's latency
	tracedMs samples // traced queries' DB.Query latency
	busy     time.Duration
	queries  int64
	extra    map[string]samples // per-operation-type series, for the report
}

// fail records a failed operation; the first few reasons are printed.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted operation, failed when err is non-nil.
func (r *run) check(err error) bool {
	r.attempted++
	if err != nil {
		r.fail("%v", err)
		return false
	}
	return true
}

func (r *run) sample(name string, v float64) {
	r.extra[name] = append(r.extra[name], v)
}

// query runs one DB.Query, recording its latency.
func (r *run) query(sql string, traced bool) (*sqlts.Result, time.Duration, bool) {
	var res *sqlts.Result
	var d time.Duration
	var err error
	if r.tr != nil {
		res, d, err = r.tr.query(r.db, sql, traced)
	} else {
		s := time.Now()
		res, err = r.db.Query(sql)
		d = time.Since(s)
	}
	r.busy += d
	r.queries++
	if traced {
		r.tracedMs = append(r.tracedMs, ms(d))
	} else {
		r.queryMs = append(r.queryMs, ms(d))
	}
	return res, d, r.check(err)
}

// flush runs a traced run's queued re-drives; a re-drive that does not
// reproduce the DB's output fails its operation.
func (r *run) flush() {
	if r.tr == nil {
		return
	}
	for _, err := range r.tr.flush(r.db) {
		r.fail("%v", err)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// exec runs one DB.Exec, returning its latency.
func (r *run) exec(sql string, traced bool) (time.Duration, error) {
	if r.tr != nil {
		return r.tr.exec(r.db, sql, traced)
	}
	s := time.Now()
	err := r.db.Exec(sql)
	return time.Since(s), err
}

// push delivers rows to the standing stream, returning the batch time.
func (r *run) push(rows []storage.Row, traced bool) (time.Duration, error) {
	if r.tr != nil {
		return r.tr.push(r.stream, rows, traced)
	}
	s := time.Now()
	for _, row := range rows {
		if err := r.stream.Push(row...); err != nil {
			return time.Since(s), err
		}
	}
	return time.Since(s), nil
}

// ingest appends rows through one multi-row INSERT and pushes the same
// ticks into the standing stream.
func (r *run) ingest(table string, rows []storage.Row, traced bool) (insert, push time.Duration, err error) {
	insert, err = r.exec(insertSQL(table, rows), traced)
	if err != nil {
		return insert, 0, fmt.Errorf("insert: %w", err)
	}
	push, err = r.push(rows, traced)
	if err != nil {
		return insert, push, fmt.Errorf("push: %w", err)
	}
	return insert, push, nil
}

// openStream opens the standing stream whose output the end-of-run gate
// compares with a batch query.
func (r *run) openStream(sql string) error {
	if r.tr != nil {
		return r.tr.openStream(r.db, sql, func() error { return r.startStream(sql) })
	}
	return r.startStream(sql)
}

func (r *run) startStream(sql string) error {
	r.streamed, r.streamedN = map[string]int{}, 0
	st, err := r.db.Stream(sql, sqlts.StreamOptions{}, func(row storage.Row) error {
		r.streamed[string(rowKey(nil, row))]++
		r.streamedN++
		return nil
	})
	r.stream = st
	return err
}

// reopenStream closes the standing stream and opens a fresh one,
// untraced; a traced run's mirror matchers start over with it.
func (r *run) reopenStream(sql string) error {
	if err := r.stream.Close(); err != nil {
		return err
	}
	if r.tr != nil {
		r.tr.forgetStream()
	}
	return r.startStream(sql)
}

// closeStream runs the streaming gates: in a traced run the mirror
// matchers' counters equal the stream's, and the stream's cumulative
// output equals batch (a multiset: streams emit in completion order).
func (r *run) closeStream(batch []storage.Row) {
	if r.tr != nil {
		got, want := r.tr.streamStats(), r.stream.Stats()
		if got != want {
			r.check(fmt.Errorf("stream re-drive: stats %v, Stream.Stats %v", got, want))
		} else {
			r.check(nil)
		}
	}
	if err := r.stream.Close(); !r.check(err) {
		return
	}
	if !sameMultiset(r.streamed, rowMultiset(batch)) {
		r.check(fmt.Errorf("stream output (%d rows) differs from the batch query (%d rows)", r.streamedN, len(batch)))
		return
	}
	r.check(nil)
}

// insertSQL renders rows as one multi-row INSERT. Floats are printed in
// their shortest exact form, so the table and the stream hold the same
// values.
func insertSQL(table string, rows []storage.Row) string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(table)
	b.WriteString(" VALUES ")
	for i, row := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, v := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			switch v.Type() {
			case storage.TypeFloat:
				s := strconv.FormatFloat(v.Float(), 'f', -1, 64)
				if !strings.ContainsAny(s, ".") {
					s += ".0"
				}
				b.WriteString(s)
			case storage.TypeString, storage.TypeDate:
				b.WriteByte('\'')
				b.WriteString(v.String())
				b.WriteByte('\'')
			default:
				b.WriteString(v.String())
			}
		}
		b.WriteByte(')')
	}
	return b.String()
}

// benchmark runs one configured run and returns its result line.
func benchmark(cfg config, out io.Writer) (*result, error) {
	var setupS []float64
	var r *run
	var w workload
	reps := setupReps(cfg.workload)
	for i := 0; i < reps; i++ {
		w = newWorkload(cfg.workload, cfg.seed)
		r = &run{cfg: cfg, extra: map[string]samples{}}
		if cfg.trace && i == reps-1 {
			r.tr = newTracer(map[string][]string{"djia": {"price"}, "quote": {"price"}})
		}
		runtime.GC()
		s := time.Now()
		if err := w.setup(r); err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		setupS = append(setupS, time.Since(s).Seconds())
	}
	r.flush()
	if err := w.references(r); err != nil {
		return nil, fmt.Errorf("%s references: %w", cfg.workload, err)
	}

	// A traced run alternates traced and untraced blocks for its first
	// traceShare of the time, collecting garbage before and after every
	// re-drive so that neither the re-drive's spans nor the next block
	// pay for the other's garbage, whichever kind the block is. It then
	// runs untraced blocks only, over which it measures the Go runtime,
	// free of the re-drives' allocations and the forced collections.
	// Restores between epochs collect their garbage too; their runtime
	// counters are left out.
	epoch, bs := w.epochSteps(), w.blockSteps()
	if epoch%bs != 0 {
		return nil, fmt.Errorf("%s: epoch of %d steps is not a whole number of %d-step blocks", cfg.workload, epoch, bs)
	}
	cache0 := r.db.CacheStats()
	runtime.GC()
	start := time.Now()
	end := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	alternateUntil := end
	if cfg.trace {
		alternateUntil = start.Add(time.Duration(traceShare * cfg.seconds * float64(time.Second)))
	}
	var ms0, ms1, rs0, rs1 runtime.MemStats
	var restoreAlloc, restorePauseNs uint64
	var restoreGCs uint32
	alternating, untracedInB := cfg.trace, 0
	var q0 int64
	var heapMB float64
	// qps is the median over untraced blocks of the block's queries per
	// second of busy time: a stall, such as CPU time the host steals in
	// a burst, slows a few blocks, which the median passes over.
	var blockQPS []float64
	steps := 0
	for ; time.Now().Before(end) || steps%epoch != 0 || steps < cfg.minEpochs*epoch; steps += bs {
		if steps > 0 && steps%epoch == 0 {
			runtime.ReadMemStats(&rs0)
			if err := w.restore(r); err != nil {
				return nil, fmt.Errorf("%s restore: %w", cfg.workload, err)
			}
			runtime.GC()
			runtime.ReadMemStats(&rs1)
			restoreAlloc += rs1.TotalAlloc - rs0.TotalAlloc
			restoreGCs += rs1.NumGC - rs0.NumGC
			restorePauseNs += rs1.PauseTotalNs - rs0.PauseTotalNs
		}
		if alternating && !time.Now().Before(alternateUntil) {
			alternating, untracedInB, q0 = false, len(r.queryMs), r.queries
			runtime.ReadMemStats(&ms0)
			restoreAlloc, restoreGCs, restorePauseNs = 0, 0, 0
		}
		traced := alternating && (steps/bs)%2 == 0
		busy0, queries0 := r.busy, r.queries
		for i := 0; i < bs; i++ {
			w.step(r, traced)
		}
		if !traced && r.busy > busy0 {
			blockQPS = append(blockQPS, float64(r.queries-queries0)/(r.busy-busy0).Seconds())
		}
		if alternating {
			runtime.GC()
		}
		r.flush()
		if alternating {
			runtime.GC()
		}
		if !cfg.trace && steps+bs == epoch {
			runtime.GC()
			runtime.ReadMemStats(&ms1)
			heapMB = float64(ms1.HeapAlloc) / (1 << 20)
		}
	}
	epochs := steps / epoch
	// Go runtime counters over the untraced tail of a traced run.
	var tailQueries int64
	var tailAlloc, tailPauseNs uint64
	var tailGCs uint32
	if cfg.trace {
		runtime.ReadMemStats(&ms1)
		tailQueries = r.queries - q0
		tailAlloc = ms1.TotalAlloc - ms0.TotalAlloc - restoreAlloc
		tailGCs = ms1.NumGC - ms0.NumGC - restoreGCs
		tailPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs - restorePauseNs
		r.queryMs = r.queryMs[:untracedInB]
	}
	cache1 := r.db.CacheStats()
	w.finish(r)

	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	counts := map[string]int{}
	if !cfg.trace {
		n := len(r.queryMs)
		res.Metrics["setup_s"] = metric{samples(setupS).quantile(0.5), "s"}
		res.Metrics["query_p50_ms"] = metric{r.queryMs.quantile(0.5), "ms"}
		res.Metrics["query_p90_ms"] = metric{r.queryMs.quantile(0.9), "ms"}
		res.Metrics["qps"] = metric{samples(blockQPS).quantile(0.5), "1/s"}
		res.Metrics["ok_ratio"] = metric{1 - float64(r.failed)/float64(max(r.attempted, 1)), "ratio"}
		res.Metrics["live_heap_mb"] = metric{heapMB, "MB"}
		counts["setup_s"], counts["query_p50_ms"], counts["query_p90_ms"], counts["qps"] = len(setupS), n, n, len(blockQPS)
		counts["ok_ratio"] = int(r.attempted)
	} else {
		for k, v := range r.tr.layerMetrics() {
			res.Metrics[k] = v
		}
		ph, pm := cache1.PlanHits-cache0.PlanHits, cache1.PlanMisses-cache0.PlanMisses
		th, tm := cache1.PartitionHits-cache0.PartitionHits, cache1.PartitionMisses-cache0.PartitionMisses
		inv := cache1.PartitionInvalidations - cache0.PartitionInvalidations
		res.Metrics["sqlts.plan_cache_hit_ratio"] = metric{perOp(float64(ph), ph+pm), "ratio"}
		res.Metrics["sqlts.partition_cache_hit_ratio"] = metric{perOp(float64(th), th+tm), "ratio"}
		res.Metrics["sqlts.partition_invalidations"] = metric{perOp(float64(inv), r.queries), "1/query"}
		res.Metrics["go.alloc_kb_per_op"] = metric{perOp(float64(tailAlloc)/1024, tailQueries), "KB"}
		res.Metrics["go.gc_cycles"] = metric{perOp(1000*float64(tailGCs), tailQueries), "1/kop"}
		res.Metrics["go.gc_pause_ms"] = metric{perOp(float64(tailPauseNs)/1e3, tailQueries), "ms/kop"}
		tp50, up50 := r.tracedMs.quantile(0.5), r.queryMs.quantile(0.5)
		res.Metrics["trace.overhead_pct"] = metric{100 * (tp50/up50 - 1), "%"}
		counts["trace.overhead_pct"] = len(r.tracedMs)
		fmt.Fprint(out, r.tr.selfTable(cfg.workload))
		fmt.Fprintf(out, "# reconcile: traced DB.Query p50 %.4f ms (n=%d), untraced p50 %.4f ms (n=%d)\n",
			tp50, len(r.tracedMs), up50, len(r.queryMs))
		if math.Abs(tp50/up50-1) > reconcileBound {
			r.check(fmt.Errorf("reconcile: traced p50 %.4f ms is %.1f%% off the untraced %.4f ms (bound %.0f%%)",
				tp50, 100*(tp50/up50-1), up50, 100*reconcileBound))
		} else {
			r.check(nil)
		}
		if cfg.spansDir != "" {
			path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
			if err := r.tr.writeSpans(path); err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "# spans: %d written to %s (%d beyond the %d kept)\n", len(r.tr.spans), path, r.tr.dropped, maxSpans)
		}
		res.Attempted, res.Failed = r.attempted, r.failed
	}
	for _, name := range sortedKeys(r.extra) {
		s := r.extra[name]
		fmt.Fprintf(out, "# %-30s p50 %.4f p90 %.4f p99 %.4f (n=%d)\n", name, s.quantile(0.5), s.quantile(0.9), s.quantile(0.99), len(s))
	}
	if !cfg.trace && len(r.queryMs) > 0 {
		fmt.Fprintf(out, "# %-30s %14.6g ms (n=%d)\n", "query_p99_ms", r.queryMs.quantile(0.99), len(r.queryMs))
	}
	printMetrics(out, res.Metrics, counts)
	fmt.Fprintf(out, "# epochs: %d of %d steps\n", epochs, epoch)
	for _, f := range r.failures {
		fmt.Fprintln(out, "# FAILED:", f)
	}
	res.Correct = r.failed == 0
	return res, nil
}

// traceShare is the part of a traced run that alternates traced and
// untraced blocks.
const traceShare = 0.7

// reconcileBound is how far the traced queries' median may sit from the
// untraced median before the traced accounting is rejected; it is the
// query_p50_ms bound in BENCHMARK.json.
const reconcileBound = 0.25

func sortedKeys(m map[string]samples) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
