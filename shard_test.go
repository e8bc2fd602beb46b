package sqlts_test

// Tests for the one execution path, shard.Partition + shard.Gather:
// results must be bit-identical to a shard-free reference across shard
// counts, executors and options, including the paper's pred-evals
// metric; an insert must invalidate only the shard it lands in; and the
// path must stay correct under concurrent readers and an inserter.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"sqlts"
	"sqlts/internal/core"
	"sqlts/internal/engine"
	"sqlts/internal/fault"
	"sqlts/internal/query"
	"sqlts/internal/storage"
	"sqlts/internal/testutil"
	"sqlts/internal/workload"
	"sqlts/ta"
)

// shardQuoteDB builds a quote DB with n geometric-walk symbols (every
// fifth one carrying a planted double bottom) and returns it with the
// shared table, so a second DB can serve the identical data.
func shardQuoteDB(t testing.TB, n int) (*sqlts.DB, *storage.Table) {
	t.Helper()
	tbl := workload.ClusterWalks("quote", 11, n, 30, 5)
	db := sqlts.New()
	db.RegisterTable(tbl)
	if err := db.DeclarePositive("quote", "price"); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// referenceDB registers the same table in a fresh single-shard DB.
func referenceDB(t testing.TB, tbl *storage.Table) *sqlts.DB {
	t.Helper()
	db := sqlts.New()
	db.RegisterTable(tbl)
	if err := db.DeclarePositive("quote", "price"); err != nil {
		t.Fatal(err)
	}
	return db
}

const shardTestSQL = `
	SELECT X.name, FIRST(Y).date, COUNT(Y) AS days
	FROM quote
	  CLUSTER BY name
	  SEQUENCE BY date
	  AS (X, *Y, Z)
	WHERE X.price >= X.previous.price
	  AND Y.price < 0.99 * Y.previous.price
	  AND Z.price > Z.previous.price`

// mustRun executes sql with opts and fails the test on error.
func mustRun(t testing.TB, db *sqlts.DB, sql string, opts sqlts.RunOptions) *sqlts.Result {
	t.Helper()
	q, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.RunWith(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameResult asserts two results agree on rows, matches, and the
// paper's counters.
func sameResult(t testing.TB, label string, want, got *sqlts.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatalf("%s: rows differ (%d vs %d)", label, len(want.Rows), len(got.Rows))
	}
	if want.Stats != got.Stats {
		t.Fatalf("%s: stats differ: %+v vs %+v", label, want.Stats, got.Stats)
	}
	if !reflect.DeepEqual(want.Matches, got.Matches) {
		t.Fatalf("%s: cluster matches differ", label)
	}
	if !reflect.DeepEqual(want.ClusterStats(), got.ClusterStats()) {
		t.Fatalf("%s: per-cluster stats differ", label)
	}
}

// reference is the result of running sql over tbl without
// internal/shard: Table.ClusterVersion clusters, one
// engine.NewNaive/NewOPS executor on the condition interpreter searches
// them in order, and the analyzed select projects each match.
type reference struct {
	rows     []storage.Row
	stats    engine.Stats
	clusters []sqlts.ClusterStat
	matches  []sqlts.ClusterMatches
	path     []engine.PathPoint
}

func referenceRun(t testing.TB, tbl *storage.Table, sql string, naive, overlap bool) *reference {
	t.Helper()
	st, err := query.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	c, err := query.Analyze(st.(*query.SelectStmt), tbl.Schema, query.AnalyzeOptions{PositiveColumns: []string{"price"}})
	if err != nil {
		t.Fatal(err)
	}
	policy := engine.SkipPastLastRow
	if overlap {
		policy = engine.SkipToNextRow
	}
	var ex engine.Executor
	var path func() []engine.PathPoint
	if naive {
		n := engine.NewNaive(c.Pattern, policy)
		n.Trace()
		ex, path = n, n.Path
	} else {
		o := engine.NewOPS(c.Pattern, core.TablesFrom(c.Pattern, core.ComputeMatrices(c.Pattern)), engine.OPSConfig{Policy: policy})
		o.Trace()
		ex, path = o, o.Path
	}
	clusters, _, err := tbl.ClusterVersion(c.ClusterBy, c.SequenceBy)
	if err != nil {
		t.Fatal(err)
	}
	ref := &reference{}
	for ci, seq := range clusters {
		ms, stats := ex.FindAll(seq)
		ref.stats.Add(stats)
		ref.clusters = append(ref.clusters, sqlts.ClusterStat{Cluster: ci, Rows: len(seq), Stats: stats})
		if len(ms) > 0 {
			ref.matches = append(ref.matches, sqlts.ClusterMatches{Cluster: ci, Matches: ms})
		}
		for _, m := range ms {
			row, err := c.EvalSelect(seq, m.Spans)
			if err != nil {
				t.Fatal(err)
			}
			ref.rows = append(ref.rows, row)
		}
		ref.path = append(ref.path, path()...)
	}
	return ref
}

// sameAsReference asserts a result reproduces the reference bit for
// bit.
func sameAsReference(t testing.TB, want *reference, got *sqlts.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.rows, got.Rows) {
		t.Fatalf("rows differ (%d vs %d)", len(want.rows), len(got.Rows))
	}
	if want.stats != got.Stats {
		t.Fatalf("stats differ: %+v vs %+v", want.stats, got.Stats)
	}
	if !reflect.DeepEqual(want.matches, got.Matches) {
		t.Fatal("cluster matches differ")
	}
	if !reflect.DeepEqual(want.clusters, got.ClusterStats()) {
		t.Fatal("per-cluster stats differ")
	}
}

// geometricQuotes is a quote table of n geometric-walk symbols of rows
// days each.
func geometricQuotes(n, rows int) *storage.Table {
	series := map[string][]float64{}
	for s := 0; s < n; s++ {
		series[fmt.Sprintf("S%02d", s)] = workload.GeometricWalk(workload.WalkConfig{
			Seed: int64(s + 1), N: rows, Start: 50 + float64(s), Drift: 0, Vol: 0.02,
		})
	}
	return workload.QuoteTable("quote", 10000, series)
}

// TestShardedMatchesSerial is the differential suite of the one
// execution path: every shard count crossed with every run option —
// cached and uncached partitions, traced runs, inline and concurrent
// fan-out, kernel, interpreter and row-at-a-time probing, overlap and
// the naive executor — must reproduce the shard-free reference bit for
// bit: rows in order, Stats, the per-cluster breakdown, matches, and
// the Trace search path.
func TestShardedMatchesSerial(t *testing.T) {
	variants := []struct {
		name string
		opts sqlts.RunOptions
	}{
		{"default", sqlts.RunOptions{}},
		{"nocache", sqlts.RunOptions{NoCache: true}},
		{"trace", sqlts.RunOptions{Trace: true}},
		{"maxworkers1", sqlts.RunOptions{MaxWorkers: 1}},
		{"maxworkers3", sqlts.RunOptions{MaxWorkers: 3}},
		{"nokernel", sqlts.RunOptions{NoKernel: true}},
		{"novectorize", sqlts.RunOptions{NoVectorize: true}},
		{"overlap", sqlts.RunOptions{Overlap: true}},
		{"naive", sqlts.RunOptions{Executor: sqlts.NaiveExec}},
		{"naive-trace", sqlts.RunOptions{Executor: sqlts.NaiveExec, Trace: true}},
	}
	for _, ds := range []struct {
		name string
		tbl  *storage.Table
	}{
		{"walks", workload.ClusterWalks("quote", 11, 60, 30, 5)},
		{"geometric", geometricQuotes(40, 300)},
	} {
		refs := map[[2]bool]*reference{}
		for _, nshards := range []int{1, 2, 4, 8} {
			db := referenceDB(t, ds.tbl)
			db.SetShards(nshards)
			for _, v := range variants {
				t.Run(fmt.Sprintf("%s/shards=%d/%s", ds.name, nshards, v.name), func(t *testing.T) {
					key := [2]bool{v.opts.Executor == sqlts.NaiveExec, v.opts.Overlap}
					if refs[key] == nil {
						refs[key] = referenceRun(t, ds.tbl, shardTestSQL, key[0], key[1])
						if len(refs[key].rows) == 0 {
							t.Fatal("workload produced no matches; adjust parameters")
						}
					}
					q, err := db.Prepare(shardTestSQL)
					if err != nil {
						t.Fatal(err)
					}
					res, err := q.RunWith(v.opts)
					if err != nil {
						t.Fatal(err)
					}
					sameAsReference(t, refs[key], res)
					if v.opts.Trace && !reflect.DeepEqual(refs[key].path, q.LastPath()) {
						t.Fatalf("search path differs (%d vs %d points)", len(refs[key].path), len(q.LastPath()))
					}
					if res.Shards() != nshards {
						t.Fatalf("res.Shards() = %d, want %d", res.Shards(), nshards)
					}
					if v.opts.NoCache && res.PartitionCached() {
						t.Fatal("NoCache run reported a cached partition")
					}
				})
			}
			// Every cached variant above after the first served the
			// partition warm; one more default run must too.
			if res := mustRun(t, db, shardTestSQL, sqlts.RunOptions{}); !res.PartitionCached() {
				t.Fatalf("%s/shards=%d: warm run missed the partition cache", ds.name, nshards)
			}
		}
	}
}

// TestSingleShardInsertRefresh: at the default single shard, an insert
// into one cluster refreshes the cached partition once — one miss, one
// invalidation, the shard's version bumped rather than a fresh build —
// and the refreshed result equals the shard-free reference.
func TestSingleShardInsertRefresh(t *testing.T) {
	db, tbl := shardQuoteDB(t, 40)
	if _, err := db.Query(shardTestSQL); err != nil {
		t.Fatal(err)
	}
	before := db.CacheStats()
	tbl.MustInsert(storage.NewString("s05"), storage.NewDateDays(10_000), storage.NewFloat(101))
	res, err := db.Query(shardTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	after := db.CacheStats()
	if res.PartitionCached() {
		t.Fatal("post-insert run reported a partition cache hit")
	}
	if d := after.PartitionMisses - before.PartitionMisses; d != 1 {
		t.Fatalf("%d partition misses after one insert, want 1", d)
	}
	if d := after.PartitionInvalidations - before.PartitionInvalidations; d != 1 {
		t.Fatalf("%d partition invalidations after one insert, want 1", d)
	}
	infos := db.ShardInfo()
	if len(infos) != 1 || infos[0].Shards != 1 || infos[0].PerShard[0].Version != 2 {
		t.Fatalf("ShardInfo = %+v, want one single-shard partition refreshed once", infos)
	}
	sameAsReference(t, referenceRun(t, tbl, shardTestSQL, false, false), res)
}

// TestInlineFailuresContained: on the inline single-worker path a
// panicking predicate still returns a *PanicError and an operator kill
// still returns ErrKilled, and neither leaves a goroutine behind.
func TestInlineFailuresContained(t *testing.T) {
	defer fault.Reset()
	defer testutil.LeakCheck(t)()
	// Clusters long enough to cross engine.eval's 1024-eval checkpoint.
	db := referenceDB(t, workload.ClusterWalks("quote", 11, 6, 3000, 5))
	q, err := db.Prepare(shardTestSQL)
	if err != nil {
		t.Fatal(err)
	}

	if err := fault.Arm("engine.eval", fault.Action{Panic: "predicate panic"}); err != nil {
		t.Fatal(err)
	}
	res, err := q.Run()
	var pe *sqlts.PanicError
	if res != nil || !errors.As(err, &pe) {
		t.Fatalf("panicking predicate: res=%v err=%v; want nil, *PanicError", res, err)
	}
	fault.Reset()

	// Kill the run from inside its own third cluster boundary.
	if err := fault.Arm("sqlts.execute.cluster", fault.Action{After: 2, Times: 1, Fn: func() error {
		for _, f := range db.ActiveQueries() {
			if err := db.KillQuery(f.ID, "test"); err != nil {
				return err
			}
		}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	res, err = q.Run()
	if res != nil || !errors.Is(err, sqlts.ErrKilled) {
		t.Fatalf("killed run: res=%v err=%v; want nil, ErrKilled", res, err)
	}
	fault.Reset()
	if _, err := q.Run(); err != nil {
		t.Fatalf("run after the kill: %v", err)
	}
}

// TestShardedPredEvalsPin pins the paper's cost metric on the §7
// double-bottom corpus: the sharded path must report exactly the
// single-shard path's 11,972 predicate evaluations.
func TestShardedPredEvalsPin(t *testing.T) {
	const pinnedPredEvals = 11972
	prices := workload.DJIA25Years(1)
	for i := 0; i < 12; i++ {
		workload.PlantDoubleBottom(prices, 1+(i+1)*len(prices)/13)
	}
	tbl := workload.SeriesTable("djia", 2557, prices)
	sql := ta.DoubleBottom("djia", 0.02)

	db := sqlts.New()
	db.RegisterTable(tbl)
	if err := db.DeclarePositive("djia", "price"); err != nil {
		t.Fatal(err)
	}
	serial := mustRun(t, db, sql, sqlts.RunOptions{})
	if serial.Stats.PredEvals != pinnedPredEvals {
		t.Fatalf("serial pred-evals = %d, want %d", serial.Stats.PredEvals, pinnedPredEvals)
	}
	sdb := sqlts.New()
	sdb.RegisterTable(tbl)
	if err := sdb.DeclarePositive("djia", "price"); err != nil {
		t.Fatal(err)
	}
	sdb.SetShards(8)
	sharded := mustRun(t, sdb, sql, sqlts.RunOptions{})
	if sharded.Stats.PredEvals != pinnedPredEvals {
		t.Fatalf("sharded pred-evals = %d, want %d", sharded.Stats.PredEvals, pinnedPredEvals)
	}
	sameResult(t, "double-bottom", serial, sharded)
}

// TestShardedInsertInvalidatesOneShard pins the tentpole's invalidation
// contract: an insert into one cluster rebuilds exactly the shard that
// cluster hashes to; every other shard keeps its version (and with it
// its memoized projections and masks).
func TestShardedInsertInvalidatesOneShard(t *testing.T) {
	db, _ := shardQuoteDB(t, 40)
	db.SetShards(4)
	if _, err := db.Query(shardTestSQL); err != nil {
		t.Fatal(err)
	}
	infos := db.ShardInfo()
	if len(infos) != 1 || infos[0].Shards != 4 {
		t.Fatalf("ShardInfo = %+v, want one 4-shard partition", infos)
	}
	for _, s := range infos[0].PerShard {
		if s.Version != 1 {
			t.Fatalf("shard %d version %d before any insert", s.ID, s.Version)
		}
	}

	// One row into an existing symbol's cluster.
	tbl := db.Table("quote")
	tbl.MustInsert(storage.NewString("s05"), storage.NewDateDays(10_000), storage.NewFloat(101))
	res, err := db.Query(shardTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionCached() {
		t.Fatal("post-insert run reported a partition cache hit")
	}
	infos = db.ShardInfo()
	rebuilt := 0
	for _, s := range infos[0].PerShard {
		switch s.Version {
		case 1:
		case 2:
			rebuilt++
		default:
			t.Fatalf("shard %d at version %d after one insert", s.ID, s.Version)
		}
	}
	if rebuilt != 1 {
		t.Fatalf("%d shards rebuilt after a single-cluster insert, want 1", rebuilt)
	}
	if infos[0].Version != tbl.Version() {
		t.Fatalf("partition at table version %d, table at %d", infos[0].Version, tbl.Version())
	}

	// The refreshed generation serves warm again.
	res, err = db.Query(shardTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PartitionCached() {
		t.Fatal("second post-insert run missed the shard cache")
	}
}

// TestShardedStress: eight readers hammer the sharded path while an
// inserter appends rows into existing and new clusters. No read may
// fail; every read must be internally consistent; and once the inserter
// quiesces, the sharded result must be bit-identical to a single-shard
// reference DB serving the same table.
func TestShardedStress(t *testing.T) {
	db, tbl := shardQuoteDB(t, 32)
	db.SetShards(8)
	ref := referenceDB(t, tbl)

	const readers = 8
	const readsEach = 25
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readsEach; i++ {
				res, err := db.Query(shardTestSQL)
				if err != nil {
					errs <- err
					return
				}
				// Each match projects exactly one output row here.
				if res.Stats.Matches != len(res.Rows) {
					errs <- fmt.Errorf("read saw %d matches but %d rows", res.Stats.Matches, len(res.Rows))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 120; i++ {
			name := fmt.Sprintf("s%03d", i%40) // mostly existing, some new clusters
			if err := tbl.Insert(
				storage.NewString(name),
				storage.NewDateDays(int64(20_000+i)),
				storage.NewFloat(90+float64(i%13)),
			); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	want := mustRun(t, ref, shardTestSQL, sqlts.RunOptions{})
	got := mustRun(t, db, shardTestSQL, sqlts.RunOptions{})
	sameResult(t, "post-quiesce", want, got)
}

// TestDebugShardsSurface: /debug/shards reports the configured shard
// count and the cached partitions' per-shard breakdown.
func TestDebugShardsSurface(t *testing.T) {
	db, _ := shardQuoteDB(t, 12)
	db.SetShards(3)
	if _, err := db.Query(shardTestSQL); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	db.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/shards", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /debug/shards: %d", rec.Code)
	}
	var body struct {
		Configured int                        `json:"configured_shards"`
		Partitions []sqlts.ShardPartitionInfo `json:"partitions"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Configured != 3 {
		t.Fatalf("configured_shards = %d, want 3", body.Configured)
	}
	if len(body.Partitions) != 1 || body.Partitions[0].Table != "quote" {
		t.Fatalf("partitions = %+v, want the quote table", body.Partitions)
	}
	p := body.Partitions[0]
	if p.Shards != 3 || len(p.PerShard) != 3 || p.Clusters != 12 {
		t.Fatalf("partition = %+v, want 3 shards over 12 clusters", p)
	}
}

// TestSetShardsOffDropsCache: SetShards(0) falls back to the default
// single shard, and any shard-count change drops the cached partitions.
func TestSetShardsOffDropsCache(t *testing.T) {
	db, _ := shardQuoteDB(t, 10)
	db.SetShards(4)
	if _, err := db.Query(shardTestSQL); err != nil {
		t.Fatal(err)
	}
	if len(db.ShardInfo()) != 1 {
		t.Fatal("no cached partition after a sharded query")
	}
	db.SetShards(0)
	if got := len(db.ShardInfo()); got != 0 {
		t.Fatalf("%d partitions cached after SetShards(0)", got)
	}
	if db.Shards() != 1 {
		t.Fatalf("Shards() = %d after SetShards(0), want 1", db.Shards())
	}
	res, err := db.Query(shardTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards() != 1 {
		t.Fatalf("res.Shards() = %d after SetShards(0), want 1", res.Shards())
	}
}
