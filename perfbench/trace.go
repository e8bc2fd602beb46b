package main

// The traced run. Every traced operation is timed as one root span
// around the public sqlts call, then re-driven through the exported
// functions of the layers below it, each call wrapped in a child span:
//
//	sqlts.query  → query.parse, query.analyze, core.matrices,
//	               core.shift_next, pattern.kernel_compile,
//	               storage.partition_build, pattern.projection,
//	               pattern.mask_build, engine.match, query.select
//	sqlts.exec   → query.insert_parse, storage.insert
//	sqlts.push   → engine.push
//
//	sqlts.stream → the compile spans above, core.stream_tables
//
// Re-drives wait until the end of the operation's block (see
// benchmark), so a traced block's DB calls run back to back like an
// untraced block's and the re-drive's cache and heap disturbance falls
// on block boundaries, which both kinds of block share.
//
// The re-drive repeats only the work the DB did for that operation,
// which the Result's PlanCached/PartitionCached flags reveal: a mirror
// keeps the plans, partitions, projections and masks the DB holds, and
// work the DB did during an untraced operation is caught up here
// without spans. Child spans therefore start after their root ends; a
// layer's self time is the duration of its spans, and sqlts.self is the
// query root's duration minus its children's.
//
// The re-drive must reproduce the DB's rows and counters exactly; a
// difference fails the operation.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sqlts"
	"sqlts/internal/constraint"
	"sqlts/internal/core"
	"sqlts/internal/engine"
	"sqlts/internal/pattern"
	"sqlts/internal/query"
	"sqlts/internal/storage"
)

// maxSpans bounds the spans kept for the span file; the accounting uses
// running totals and is unaffected by the bound.
const maxSpans = 200_000

// maxKernelMemo bounds the mirror's per-partition memo: the workloads
// reuse at most one kernel per partition, and ad-hoc kernels are never
// reused.
const maxKernelMemo = 4

// maxMirrorPlans exceeds the DB's plan-cache capacity, so a plan the DB
// still caches is never missing from the mirror.
const maxMirrorPlans = 512

// queryLayers are the child spans of a sqlts.query root, in pipeline
// order.
var queryLayers = []string{
	"query.parse", "query.analyze", "core.matrices", "core.shift_next",
	"pattern.kernel_compile", "storage.partition_build", "pattern.projection",
	"pattern.mask_build", "engine.match", "query.select",
}

type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch   time.Time
	spans   []span
	dropped int64
	nextID  int64
	op      int64
	on      bool // false while catching up after an untraced operation

	root  string             // name of the current operation's root span
	ns    map[string]int64   // summed span durations by name
	qns   map[string]int64   // the same, for spans under sqlts.query roots
	calls map[string]int64   // spans recorded by name
	count map[string]float64 // exact counters by name

	queryOps, execOps, ticks int64

	positive map[string][]string // DeclarePositive columns by table
	plans    map[string]*mirrorPlan
	planFIFO []string
	parts    map[string]*mirrorPart
	shadow   map[string]*storage.Table

	stream     *mirrorPlan
	streamCols []int
	streamers  map[string]*engine.Streamer

	pending []pendingOp
}

// pendingOp is an operation whose re-drive waits for the block's end.
type pendingOp struct {
	op         int64
	root       string // sqlts.query, sqlts.exec or sqlts.push
	traced     bool
	start, end time.Time
	sql        string
	res        *sqlts.Result
	rows       []storage.Row
}

type mirrorPlan struct {
	compiled *query.Compiled
	tables   *core.Tables
	kernel   *pattern.Kernel
}

type mirrorPart struct {
	version  uint64
	clusters [][]storage.Row
	rows     int
	memo     []kernelMemo // most recent first
}

type kernelMemo struct {
	kernel *pattern.Kernel
	projs  []*storage.Projection
	masks  []*pattern.MaskSet
}

func newTracer(positive map[string][]string) *tracer {
	return &tracer{
		epoch:     time.Now(),
		ns:        map[string]int64{},
		qns:       map[string]int64{},
		calls:     map[string]int64{},
		count:     map[string]float64{},
		positive:  positive,
		plans:     map[string]*mirrorPlan{},
		parts:     map[string]*mirrorPart{},
		shadow:    map[string]*storage.Table{},
		streamers: map[string]*engine.Streamer{},
	}
}

// record stores one finished span and returns its id; nothing is
// recorded while catching up.
func (t *tracer) record(name string, parent int64, start, end time.Time) int64 {
	if !t.on {
		return 0
	}
	t.nextID++
	d := end.Sub(start).Nanoseconds()
	t.ns[name] += d
	t.calls[name]++
	if parent == 0 {
		t.root = name
	} else if t.root == "sqlts.query" {
		t.qns[name] += d
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{
			Name: name, Op: t.op, ID: t.nextID, Parent: parent,
			Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		})
	} else {
		t.dropped++
	}
	return t.nextID
}

func (t *tracer) add(name string, v float64) {
	if t.on {
		t.count[name] += v
	}
}

// query runs one DB.Query; a traced one is queued for re-drive.
func (t *tracer) query(db *sqlts.DB, sql string, traced bool) (*sqlts.Result, time.Duration, error) {
	t.op++
	start := time.Now()
	res, err := db.Query(sql)
	end := time.Now()
	if err == nil && traced {
		t.pending = append(t.pending, pendingOp{op: t.op, root: "sqlts.query", traced: true, start: start, end: end, sql: sql, res: res})
	}
	return res, end.Sub(start), err
}

// flush re-drives the queued operations in order. An untraced query
// is never queued: the mirror catches up on the DB's caches lazily, at
// the next traced query.
func (t *tracer) flush(db *sqlts.DB) []error {
	var errs []error
	for _, p := range t.pending {
		t.op, t.on = p.op, p.traced
		root := t.record(p.root, 0, p.start, p.end)
		var err error
		switch p.root {
		case "sqlts.query":
			t.queryOps++
			err = t.redriveQuery(db, p.sql, root, p.res)
		case "sqlts.exec":
			t.execOps++
			err = t.redriveExec(db, p.sql, root)
		case "sqlts.push":
			if p.traced {
				t.ticks += int64(len(p.rows))
			}
			err = t.redrivePush(p.rows, root)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("op %d (%s): %w", p.op, p.root, err))
		}
	}
	t.pending = t.pending[:0]
	return errs
}

func (t *tracer) redriveQuery(db *sqlts.DB, sql string, root int64, res *sqlts.Result) error {
	mp := t.plans[sql]
	if mp == nil || !res.PlanCached() {
		was := t.on
		t.on = was && !res.PlanCached()
		var err error
		mp, err = t.compile(db, sql, root)
		t.on = was
		if err != nil {
			return err
		}
		t.rememberPlan(sql, mp)
	}
	c := mp.compiled
	tbl := db.Table(c.Table)
	if tbl == nil {
		return fmt.Errorf("redrive: no table %q", c.Table)
	}
	key := strings.ToLower(c.Table + "\x00" + strings.Join(c.ClusterBy, "\x00") + "\x01" + strings.Join(c.SequenceBy, "\x00"))
	part := t.parts[key]
	if part == nil || !res.PartitionCached() || part.version != tbl.Version() {
		was := t.on
		t.on = was && !res.PartitionCached()
		s := time.Now()
		cl, ver, err := tbl.ClusterVersion(c.ClusterBy, c.SequenceBy)
		t.record("storage.partition_build", root, s, time.Now())
		t.on = was
		if err != nil {
			return err
		}
		part = &mirrorPart{version: ver, clusters: cl}
		for _, seq := range cl {
			part.rows += len(seq)
		}
		t.parts[key] = part
		if !res.PartitionCached() {
			t.add("storage.rows_partitioned", float64(part.rows))
		}
	}
	memo := part.lookup(mp.kernel)
	if memo == nil {
		// The DB built this kernel's projections and masks during this
		// run exactly when it met the plan or the partition fresh.
		was := t.on
		t.on = was && (!res.PlanCached() || !res.PartitionCached())
		memo = t.buildMemo(part, mp.kernel, root)
		t.on = was
	}

	s := time.Now()
	ex := engine.NewOPS(c.Pattern, mp.tables, engine.OPSConfig{Policy: engine.SkipPastLastRow})
	ex.UseKernel(mp.kernel)
	if memo.masks != nil {
		ex.SetVectorized(true)
	}
	type found struct {
		seq []storage.Row
		ms  []engine.Match
	}
	var all []found
	var stats engine.Stats
	for ci, seq := range part.clusters {
		if memo.projs != nil {
			ex.UseProjection(memo.projs[ci])
		}
		if memo.masks != nil {
			ex.UseMasks(memo.masks[ci])
		}
		ms, st := ex.FindAll(seq)
		stats.Add(st)
		if len(ms) > 0 {
			all = append(all, found{seq, ms})
		}
	}
	t.record("engine.match", root, s, time.Now())

	s = time.Now()
	rows := make([]storage.Row, 0, stats.Matches)
	for _, f := range all {
		for _, m := range f.ms {
			row, err := c.EvalSelect(f.seq, m.Spans)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
	}
	t.record("query.select", root, s, time.Now())

	t.add("engine.pred_evals", float64(stats.PredEvals))
	t.add("engine.rollbacks", float64(stats.Rollbacks))
	t.add("engine.clusters", float64(len(part.clusters)))
	t.add("engine.rows_scanned", float64(part.rows))
	if stats != res.Stats {
		return fmt.Errorf("redrive: stats %v, DB.Query %v", stats, res.Stats)
	}
	if len(rows) != len(res.Rows) || fingerprint(rows) != fingerprint(res.Rows) {
		return fmt.Errorf("redrive: %d rows differ from DB.Query's %d", len(rows), len(res.Rows))
	}
	return nil
}

// compile runs the batch compile pipeline for sql.
func (t *tracer) compile(db *sqlts.DB, sql string, root int64) (*mirrorPlan, error) {
	s := time.Now()
	st, err := query.Parse(sql)
	t.record("query.parse", root, s, time.Now())
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*query.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("redrive: %q is not a SELECT", sql)
	}
	tbl := db.Table(sel.Table)
	if tbl == nil {
		return nil, fmt.Errorf("redrive: no table %q", sel.Table)
	}
	s = time.Now()
	c, err := query.Analyze(sel, tbl.Schema, query.AnalyzeOptions{
		PositiveColumns: t.positive[strings.ToLower(sel.Table)],
	})
	t.record("query.analyze", root, s, time.Now())
	if err != nil {
		return nil, err
	}
	if c.Pattern == nil {
		return nil, fmt.Errorf("redrive: %q has no pattern", sql)
	}
	mp := &mirrorPlan{compiled: c}
	q0 := constraint.Queries()
	s = time.Now()
	m := core.ComputeMatrices(c.Pattern)
	t.record("core.matrices", root, s, time.Now())
	t.add("core.implication_checks", float64(constraint.Queries()-q0))
	s = time.Now()
	mp.tables = core.TablesFrom(c.Pattern, m)
	t.record("core.shift_next", root, s, time.Now())
	s = time.Now()
	mp.kernel = c.Pattern.CompileKernel()
	t.record("pattern.kernel_compile", root, s, time.Now())
	return mp, nil
}

func (t *tracer) rememberPlan(sql string, mp *mirrorPlan) {
	if _, ok := t.plans[sql]; !ok {
		t.planFIFO = append(t.planFIFO, sql)
		if len(t.planFIFO) > maxMirrorPlans {
			delete(t.plans, t.planFIFO[0])
			t.planFIFO = t.planFIFO[1:]
		}
	}
	t.plans[sql] = mp
}

func (p *mirrorPart) lookup(k *pattern.Kernel) *kernelMemo {
	for i := range p.memo {
		if p.memo[i].kernel == k {
			return &p.memo[i]
		}
	}
	return nil
}

// buildMemo builds k's per-cluster projections and selection masks the
// way the DB's partition cache does: projections only for kernels with
// compiled elements, masks only for kernels with vectorizable ones.
func (t *tracer) buildMemo(p *mirrorPart, k *pattern.Kernel, root int64) *kernelMemo {
	m := kernelMemo{kernel: k}
	if k.CompiledElems() > 0 {
		s := time.Now()
		m.projs = make([]*storage.Projection, len(p.clusters))
		for i, cl := range p.clusters {
			m.projs[i] = k.NewProjection()
			m.projs[i].SetRows(cl)
		}
		t.record("pattern.projection", root, s, time.Now())
		if k.VecElems() > 0 {
			s = time.Now()
			m.masks = make([]*pattern.MaskSet, len(p.clusters))
			rows := 0
			for i := range p.clusters {
				m.masks[i] = k.BuildMasks(m.projs[i], nil)
				rows += m.masks[i].Rows()
			}
			t.record("pattern.mask_build", root, s, time.Now())
			t.add("pattern.mask_rows", float64(rows))
		}
	}
	p.memo = append([]kernelMemo{m}, p.memo...)
	if len(p.memo) > maxKernelMemo {
		p.memo = p.memo[:maxKernelMemo]
	}
	return &p.memo[0]
}

// exec runs one DB.Exec INSERT script; a traced one is queued for
// re-drive.
func (t *tracer) exec(db *sqlts.DB, sql string, traced bool) (time.Duration, error) {
	t.op++
	start := time.Now()
	err := db.Exec(sql)
	end := time.Now()
	if err == nil && traced {
		t.pending = append(t.pending, pendingOp{op: t.op, root: "sqlts.exec", traced: true, start: start, end: end, sql: sql})
	}
	return end.Sub(start), err
}

// redriveExec re-drives an INSERT script's parse and its row inserts,
// into a shadow table so that the DB's table is written once.
func (t *tracer) redriveExec(db *sqlts.DB, sql string, root int64) error {
	s := time.Now()
	stmts, err := query.ParseScript(sql)
	if err != nil {
		return err
	}
	type batch struct {
		tbl  *storage.Table
		rows [][]storage.Value
	}
	var batches []batch
	for _, st := range stmts {
		ins, ok := st.(*query.InsertStmt)
		if !ok {
			continue
		}
		tbl := t.shadowOf(db, ins.Table)
		if tbl == nil {
			return fmt.Errorf("redrive: no table %q", ins.Table)
		}
		b := batch{tbl: tbl}
		for _, exprs := range ins.Rows {
			vals := make([]storage.Value, len(exprs))
			for i, e := range exprs {
				v, err := query.EvalConst(e)
				if err != nil {
					return err
				}
				if i < tbl.Schema.Len() && tbl.Schema.Columns[i].Type == storage.TypeDate && v.Type() == storage.TypeString {
					if v, err = storage.ParseValue(v.Str(), storage.TypeDate); err != nil {
						return err
					}
				}
				vals[i] = v
			}
			b.rows = append(b.rows, vals)
		}
		batches = append(batches, b)
	}
	t.record("query.insert_parse", root, s, time.Now())

	s = time.Now()
	for _, b := range batches {
		for _, vals := range b.rows {
			if err := b.tbl.Insert(vals...); err != nil {
				return err
			}
		}
	}
	t.record("storage.insert", root, s, time.Now())
	return nil
}

// shadowOf returns an empty table with the named table's schema that
// absorbs re-driven inserts; it is replaced before it grows large, so
// insert cost stays that of an append.
func (t *tracer) shadowOf(db *sqlts.DB, name string) *storage.Table {
	key := strings.ToLower(name)
	sh := t.shadow[key]
	if sh == nil || sh.Len() > 1<<16 {
		src := db.Table(name)
		if src == nil {
			return nil
		}
		sh = storage.NewTable(src.Name, src.Schema)
		t.shadow[key] = sh
	}
	return sh
}

// openStream opens the DB's standing stream and compiles its mirror:
// DB.Stream runs the batch compile pipeline (the plan is cached for
// later queries of the same text) plus the continuous-query tables.
// Every later push is replayed into per-cluster engine.Streamers
// configured as the DB's stream configures its own.
func (t *tracer) openStream(db *sqlts.DB, sql string, open func() error) error {
	t.op++
	t.on = true
	start := time.Now()
	if err := open(); err != nil {
		return err
	}
	root := t.record("sqlts.stream", 0, start, time.Now())
	mp, err := t.compile(db, sql, root)
	if err != nil {
		return err
	}
	t.rememberPlan(sql, mp)
	s := time.Now()
	stream := &mirrorPlan{compiled: mp.compiled, tables: core.ComputeForStream(mp.compiled.Pattern), kernel: mp.kernel}
	t.record("core.stream_tables", root, s, time.Now())
	cols, err := db.Table(mp.compiled.Table).ColumnIndexes(mp.compiled.ClusterBy)
	if err != nil {
		return err
	}
	t.stream, t.streamCols = stream, cols
	return nil
}

// push delivers a batch of ticks to the DB's stream and queues it for
// the mirror, which follows every push so that its state matches the
// DB's; only a traced push records spans.
func (t *tracer) push(st *sqlts.Stream, rows []storage.Row, traced bool) (time.Duration, error) {
	t.op++
	start := time.Now()
	for _, r := range rows {
		if err := st.Push(r...); err != nil {
			return time.Since(start), err
		}
	}
	end := time.Now()
	t.pending = append(t.pending, pendingOp{op: t.op, root: "sqlts.push", traced: traced, start: start, end: end, rows: rows})
	return end.Sub(start), nil
}

func (t *tracer) redrivePush(rows []storage.Row, root int64) error {
	s := time.Now()
	var key []byte
	for _, r := range rows {
		key = storage.AppendRowKey(key[:0], r, t.streamCols)
		m := t.streamers[string(key)]
		if m == nil {
			m = engine.NewStreamer(t.stream.compiled.Pattern, engine.StreamConfig{
				Policy:     engine.SkipPastLastRow,
				Tables:     t.stream.tables,
				Vectorize:  true,
				ReuseSpans: true,
			}, func(engine.Match) {})
			m.UseKernel(t.stream.kernel)
			t.streamers[string(key)] = m
		}
		if err := m.Push(r); err != nil {
			return err
		}
	}
	t.record("engine.push", root, s, time.Now())
	return nil
}

// forgetPartitions drops the mirror's partitions after the DB's table
// was replaced.
func (t *tracer) forgetPartitions() { t.parts = map[string]*mirrorPart{} }

// forgetStream drops the mirror matchers after the DB's stream was
// reopened; queued pushes must have been flushed.
func (t *tracer) forgetStream() { t.streamers = map[string]*engine.Streamer{} }

// streamStats sums the mirror matchers' counters, to be compared with
// the DB stream's Stats.
func (t *tracer) streamStats() engine.Stats {
	var out engine.Stats
	for _, m := range t.streamers {
		out.Add(m.Stats())
	}
	return out
}

// writeSpans writes the retained spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perOp divides a total by an operation count, 0 when nothing ran.
func perOp(total float64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

// layerMetrics returns the per-layer metrics the spans and counters
// support; the caller adds the cache, runtime and overhead metrics.
// Work every query does is reported per traced query; compile and
// build work, which only some operations do, per call of the layer
// (a compile may belong to the standing stream's open).
func (t *tracer) layerMetrics() map[string]metric {
	perCall := func(name string, scale float64) float64 {
		return perOp(float64(t.ns[name])/scale, t.calls[name])
	}
	perQuery := func(v float64) float64 { return perOp(v, t.queryOps) }
	childNs := int64(0)
	for _, l := range queryLayers {
		childNs += t.qns[l]
	}
	return map[string]metric{
		"sqlts.self_us":               {perQuery(float64(t.ns["sqlts.query"]-childNs) / 1e3), "us"},
		"query.parse_us":              {perCall("query.parse", 1e3), "us"},
		"query.analyze_us":            {perCall("query.analyze", 1e3), "us"},
		"query.select_us":             {perQuery(float64(t.ns["query.select"]) / 1e3), "us"},
		"query.insert_parse_us":       {perCall("query.insert_parse", 1e3), "us"},
		"core.matrices_us":            {perCall("core.matrices", 1e3), "us"},
		"core.implication_checks":     {perOp(t.count["core.implication_checks"], t.calls["core.matrices"]), "count"},
		"core.shift_next_us":          {perCall("core.shift_next", 1e3), "us"},
		"pattern.kernel_compile_us":   {perCall("pattern.kernel_compile", 1e3), "us"},
		"pattern.projection_us":       {perCall("pattern.projection", 1e3), "us"},
		"pattern.mask_build_us":       {perCall("pattern.mask_build", 1e3), "us"},
		"pattern.mask_rows":           {perOp(t.count["pattern.mask_rows"], t.calls["pattern.mask_build"]), "count"},
		"storage.partition_build_ms":  {perCall("storage.partition_build", 1e6), "ms"},
		"storage.rows_partitioned":    {perOp(t.count["storage.rows_partitioned"], t.calls["storage.partition_build"]), "count"},
		"storage.insert_us":           {perCall("storage.insert", 1e3), "us"},
		"engine.match_us":             {perQuery(float64(t.ns["engine.match"]) / 1e3), "us"},
		"engine.pred_evals":           {perQuery(t.count["engine.pred_evals"]), "count"},
		"engine.rollbacks":            {perQuery(t.count["engine.rollbacks"]), "count"},
		"engine.evals_per_row":        {perOp(t.count["engine.pred_evals"], int64(t.count["engine.rows_scanned"])), "ratio"},
		"engine.clusters":             {perQuery(t.count["engine.clusters"]), "count"},
		"engine.match_us_per_cluster": {perOp(float64(t.ns["engine.match"])/1e3, int64(t.count["engine.clusters"])), "us"},
		"engine.push_ns":              {perOp(float64(t.ns["engine.push"]), t.ticks), "ns"},
	}
}

// selfTable renders the per-workload self-time table: each layer's
// time under sqlts.query roots per traced query and its share of the
// root time, then the other operations.
func (t *tracer) selfTable(workload string) string {
	var b strings.Builder
	root := float64(t.ns["sqlts.query"])
	fmt.Fprintf(&b, "# self time per traced query, %s (%d queries):\n", workload, t.queryOps)
	fmt.Fprintf(&b, "#   %-24s %12s %7s\n", "span", "us/query", "share")
	child := 0.0
	row := func(name string, ns float64) {
		share := 0.0
		if root > 0 {
			share = 100 * ns / root
		}
		fmt.Fprintf(&b, "#   %-24s %12.3f %6.1f%%\n", name, perOp(ns/1e3, t.queryOps), share)
	}
	for _, l := range queryLayers {
		child += float64(t.qns[l])
		row(l, float64(t.qns[l]))
	}
	row("sqlts (self)", root-child)
	row("total (sqlts.query)", root)
	us := func(name string, n int64) float64 { return perOp(float64(t.ns[name])/1e3, n) }
	compileNs := int64(0)
	for _, l := range queryLayers[:5] { // parse through kernel compile
		compileNs += t.ns[l] - t.qns[l]
	}
	fmt.Fprintf(&b, "# stream open: %d traced, sqlts.stream %.1f us, of which compile %.1f us and core.stream_tables %.1f us\n",
		t.calls["sqlts.stream"], us("sqlts.stream", t.calls["sqlts.stream"]),
		perOp(float64(compileNs)/1e3, t.calls["sqlts.stream"]), us("core.stream_tables", t.calls["sqlts.stream"]))
	fmt.Fprintf(&b, "# insert: %d traced statements, sqlts.exec %.1f us, query.insert_parse %.1f us, storage.insert %.1f us each\n",
		t.execOps, us("sqlts.exec", t.execOps), us("query.insert_parse", t.execOps), us("storage.insert", t.execOps))
	fmt.Fprintf(&b, "# push: %d traced ticks, sqlts.push %.0f ns, engine.push %.0f ns each\n",
		t.ticks, 1e3*us("sqlts.push", t.ticks), 1e3*us("engine.push", t.ticks))
	return b.String()
}
