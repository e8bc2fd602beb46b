package main

import (
	"fmt"
	"math"
	"math/rand"

	"sqlts"
	"sqlts/internal/storage"
	gen "sqlts/internal/workload"
	"sqlts/ta"
)

// pinnedPredEvals is the paper-metric pin of the relaxed double bottom
// on the seed-1 DJIA stand-in (the repository's tests pin it too).
const pinnedPredEvals = 11972

// ingestBatch is the rows per INSERT statement and per pushed batch.
const ingestBatch = 64

// Epoch lengths in steps (see workload.epochSteps).
const (
	adhocEpoch = 520
	liveEpoch  = 16
)

// The quote table: about 10,000 symbols × 10 days, every 50th symbol
// lengthened to 24 days with a planted double bottom.
const (
	quoteSymbols    = 10_000
	quoteRows       = 10
	quotePlantEvery = 50
)

// dataSet is the set-up every workload shares: one table and a standing
// double-bottom stream over it that has seen every row, plus an
// uncached reference DB over the same table.
type dataSet struct {
	quotes bool // the quote table; otherwise the DJIA series
	// live leaves the set-up load out of a traced run's spans, so the
	// insert and push layers describe the measured rounds' ingest.
	live  bool
	seed  int64
	table string
	sql   string        // the standing stream's statement
	refDB *sqlts.DB     // plan cache off, shares the measured DB's table
	base  []storage.Row // the table's rows at the end of set-up
}

// setup builds the measured DB: it creates the table, opens the stream
// and loads the rows through multi-row INSERTs, pushing each batch into
// the stream as it lands. The DJIA series is 6,300 days with 12 planted
// double bottoms; the quote table is the ClusterWalks one.
func (d *dataSet) setup(r *run) error {
	r.db = sqlts.New()
	var rows []storage.Row
	if d.quotes {
		d.table = "quote"
		d.sql = ta.DoubleBottomOver(d.table, "name", 0.02)
		rows, _ = gen.ClusterWalks(d.table, d.seed, quoteSymbols, quoteRows, quotePlantEvery).Snapshot()
		if err := r.db.Exec(`CREATE TABLE quote (name VARCHAR, date DATE, price REAL)`); err != nil {
			return err
		}
	} else {
		d.table = "djia"
		d.sql = ta.DoubleBottom(d.table, 0.02)
		prices := gen.DJIA25Years(d.seed)
		for i := 0; i < 12; i++ {
			gen.PlantDoubleBottom(prices, 1+(i+1)*len(prices)/13)
		}
		for i, p := range prices {
			rows = append(rows, storage.Row{storage.NewDateDays(2557 + int64(i)), storage.NewFloat(p)})
		}
		if err := r.db.Exec(`CREATE TABLE djia (date DATE, price REAL)`); err != nil {
			return err
		}
	}
	if err := r.db.DeclarePositive(d.table, "price"); err != nil {
		return err
	}
	if err := r.openStream(d.sql); err != nil {
		return err
	}
	for i := 0; i < len(rows); i += ingestBatch {
		if _, _, err := r.ingest(d.table, rows[i:min(i+ingestBatch, len(rows))], r.tr != nil && !d.live); err != nil {
			return err
		}
	}
	return nil
}

func (d *dataSet) references(r *run) error {
	d.base, _ = r.db.Table(d.table).Snapshot()
	d.refDB = sqlts.New()
	d.refDB.SetPlanCacheCapacity(0)
	d.refDB.RegisterTable(r.db.Table(d.table))
	return d.refDB.DeclarePositive(d.table, "price")
}

// reference runs sql uncached on the reference DB.
func (d *dataSet) reference(sql string, exec sqlts.ExecutorKind) (*sqlts.Result, error) {
	q, err := d.refDB.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return q.RunWith(sqlts.RunOptions{Executor: exec, NoCache: true})
}

// replaceTable swaps a fresh table holding the set-up rows into both
// DBs, so that the partition, projections and masks cached for the old
// one are dropped.
func (d *dataSet) replaceTable(r *run) error {
	t := storage.NewTable(d.table, r.db.Table(d.table).Schema)
	if err := t.InsertBatch(d.base); err != nil {
		return err
	}
	r.db.RegisterTable(t)
	d.refDB.RegisterTable(t)
	if r.tr != nil {
		r.tr.forgetPartitions()
	}
	return nil
}

// finish closes the stream against a naive batch query over the final
// table.
func (d *dataSet) finish(r *run) {
	ref, err := d.reference(d.sql, sqlts.NaiveExec)
	if !r.check(err) {
		return
	}
	r.closeStream(ref.Rows)
}

// corrupt falsifies a reference fingerprint for the gate self-test.
func corrupt(r *run, fp uint64) uint64 {
	if r.cfg.corruptReference {
		return ^fp
	}
	return fp
}

// repeatQuery re-runs the standing stream's statement with no write in
// between: plan, partition, projections and masks stay warm, so the
// matcher and SELECT evaluation carry the cost. Over the DJIA series it
// is the paper's §7 experiment; over the quote table the same kind of
// work is split across 10,000 small clusters.
type repeatQuery struct {
	dataSet
	refFP    uint64
	refEvals int64
}

func (w *repeatQuery) references(r *run) error {
	if err := w.dataSet.references(r); err != nil {
		return err
	}
	naive, err := w.reference(w.sql, sqlts.NaiveExec)
	if err != nil {
		return err
	}
	w.refFP = corrupt(r, fingerprint(naive.Rows))
	ops, err := w.reference(w.sql, sqlts.Auto)
	if err != nil {
		return err
	}
	w.refEvals = ops.Stats.PredEvals
	if !w.quotes && w.seed == 1 && w.refEvals != pinnedPredEvals {
		r.check(fmt.Errorf("seed 1 pred-evals %d, want the pinned %d", w.refEvals, pinnedPredEvals))
	} else {
		r.check(nil)
	}
	return nil
}

func (w *repeatQuery) blockSteps() int {
	if w.quotes {
		return 4
	}
	return 64
}

// The repeated query's state does not grow: an epoch only sets when
// live_heap_mb is read.
func (w *repeatQuery) epochSteps() int {
	if w.quotes {
		return 64
	}
	return 1024
}

func (w *repeatQuery) restore(*run) error { return nil }

func (w *repeatQuery) step(r *run, traced bool) {
	res, _, ok := r.query(w.sql, traced)
	if !ok {
		return
	}
	if fingerprint(res.Rows) != w.refFP || res.Stats.PredEvals != w.refEvals {
		r.fail("%s: %d rows / %d pred-evals, want the naive reference's rows and %d pred-evals",
			r.cfg.workload, len(res.Rows), res.Stats.PredEvals, w.refEvals)
	}
}

// adhocQuery issues a distinct statement every time, cycling five ta
// pattern functions with seeded thresholds: every query misses the plan cache
// and pays the whole compile pipeline plus a first-use projection and
// mask build. The functions' latencies form one class each, cheapest
// first Rally, VReversal, HeadAndShoulders, then DoubleBottom and
// DoubleTop; with five classes the median falls inside the
// HeadAndShoulders class. A sixth, ta.Crash (one element, cheaper than
// Rally), would put the median on the boundary between two classes,
// where it jumps between runs.
type adhocQuery struct {
	dataSet
	rng  *rand.Rand
	seen map[string]bool
	n    int
}

var adhocPatterns = []func(string, float64) string{
	ta.DoubleBottom, ta.DoubleTop, ta.VReversal, ta.Rally, ta.HeadAndShoulders,
}

func (w *adhocQuery) references(r *run) error {
	w.rng = rand.New(rand.NewSource(w.seed))
	w.seen = map[string]bool{w.sql: true}
	return w.dataSet.references(r)
}

// A block holds every pattern function twice, so that blocks cost
// alike.
func (w *adhocQuery) blockSteps() int { return 2 * len(adhocPatterns) }

// The partition cache keeps every ad-hoc kernel's projections and
// masks; an epoch of adhocEpoch statements bounds what it holds.
func (w *adhocQuery) epochSteps() int { return adhocEpoch }

func (w *adhocQuery) restore(r *run) error { return w.replaceTable(r) }

// next returns the next distinct statement text.
func (w *adhocQuery) next() string {
	b := adhocPatterns[w.n%len(adhocPatterns)]
	w.n++
	for {
		sql := b(w.table, 0.015+float64(w.rng.Intn(20001))*1e-6)
		if !w.seen[sql] {
			w.seen[sql] = true
			return sql
		}
	}
}

func (w *adhocQuery) step(r *run, traced bool) {
	sql := w.next()
	res, _, ok := r.query(sql, traced)
	if !ok {
		return
	}
	ref, err := w.reference(sql, sqlts.NaiveExec)
	if err != nil {
		r.fail("%s reference: %v", r.cfg.workload, err)
		return
	}
	if fingerprint(res.Rows) != corrupt(r, fingerprint(ref.Rows)) {
		r.fail("%s: %d rows differ from the naive reference's %d for %s", r.cfg.workload, len(res.Rows), len(ref.Rows), sql)
	}
}

// liveQuery appends ticks beside the standing stream: each round
// inserts one batch of 64 ticks to seeded symbols, pushes the same
// ticks, and runs the stream's statement once. The insert invalidated
// the partition, so every query rebuilds it with its projections and
// masks. Epochs bound the table's growth.
type liveQuery struct {
	dataSet
	rng      *rand.Rand
	baseLast []storage.Row // latest set-up tick per symbol
	last     []storage.Row // latest tick per symbol
	lastRes  *sqlts.Result
}

func (w *liveQuery) references(r *run) error {
	w.rng = rand.New(rand.NewSource(w.seed))
	if err := w.dataSet.references(r); err != nil {
		return err
	}
	// ClusterWalks inserts symbols in name order, each in date order.
	for i, row := range w.base {
		if i+1 == len(w.base) || w.base[i+1][0].Str() != row[0].Str() {
			w.baseLast = append(w.baseLast, row)
		}
	}
	w.last = append([]storage.Row(nil), w.baseLast...)
	return nil
}

func (w *liveQuery) blockSteps() int { return 1 }

// An epoch is liveEpoch rounds, after which the table and the stream
// are back at their set-up state: the table a round queries grows by
// at most liveEpoch*ingestBatch rows, however fast the rounds run.
func (w *liveQuery) epochSteps() int { return liveEpoch }

// restore swaps in a table holding the set-up rows and reopens the
// stream primed with them, untraced.
func (w *liveQuery) restore(r *run) error {
	if err := w.replaceTable(r); err != nil {
		return err
	}
	if err := r.reopenStream(w.sql); err != nil {
		return err
	}
	for i := 0; i < len(w.base); i += ingestBatch {
		if _, err := r.push(w.base[i:min(i+ingestBatch, len(w.base))], false); err != nil {
			return err
		}
	}
	copy(w.last, w.baseLast)
	w.lastRes = nil
	return nil
}

// ticks draws the next batch: seeded symbols, each tick one day after
// that symbol's latest with a geometric-walk price step.
func (w *liveQuery) ticks() []storage.Row {
	rows := make([]storage.Row, ingestBatch)
	for i := range rows {
		k := w.rng.Intn(len(w.last))
		prev := w.last[k]
		price := prev[2].Float() * math.Exp(0.0003+0.011*w.rng.NormFloat64())
		rows[i] = storage.Row{prev[0], storage.NewDateDays(prev[1].DateDays() + 1), storage.NewFloat(price)}
		w.last[k] = rows[i]
	}
	return rows
}

func (w *liveQuery) step(r *run, traced bool) {
	rows := w.ticks()
	ins, push, err := r.ingest(w.table, rows, traced)
	r.busy += ins + push
	if !r.check(err) {
		return
	}
	if !traced {
		r.sample("insert_ms", ms(ins))
		r.sample("push_us_per_tick", 1e3*ms(push)/float64(len(rows)))
	}
	res, _, ok := r.query(w.sql, traced)
	if !ok {
		return
	}
	w.lastRes = res
	// The stream has seen exactly the table's rows, so its output so far
	// is the query's result.
	got := rowMultiset(res.Rows)
	if r.cfg.corruptReference {
		got["corrupt"]++
	}
	if !sameMultiset(got, r.streamed) {
		r.fail("%s: the query returned %d rows, the stream has emitted %d", r.cfg.workload, len(res.Rows), r.streamedN)
	}
}

func (w *liveQuery) finish(r *run) {
	ref, err := w.reference(w.sql, sqlts.NaiveExec)
	if !r.check(err) {
		return
	}
	if w.lastRes == nil || fingerprint(ref.Rows) != corrupt(r, fingerprint(w.lastRes.Rows)) {
		r.check(fmt.Errorf("%s: the uncached reference over the final table differs from the last query", r.cfg.workload))
	} else {
		r.check(nil)
	}
	r.closeStream(ref.Rows)
}
