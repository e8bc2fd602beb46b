package main

// Machine-readable benchmark output (-json): runs the repo's benchmark
// families via testing.Benchmark and writes one JSON document with
// ns/op, allocations, and the paper's pred-evals metric per entry. The
// recorded files (BENCH_PR*.json at the repo root) track the perf
// trajectory across PRs; see docs/PERFORMANCE.md for the workflow.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"sqlts"
	"sqlts/internal/bench"
	"sqlts/internal/core"
	"sqlts/internal/engine"
	"sqlts/internal/storage"
	"sqlts/internal/workload"
	"sqlts/ta"
)

type benchEntry struct {
	// Family groups entries by experiment (E1 kmp, E2/E4 compile,
	// E3 fig5, E5 doublebottom, streaming).
	Family  string `json:"family"`
	Name    string `json:"name"`
	Variant string `json:"variant"`
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// PredEvals is the paper's cost metric for one operation (0 when
	// the entry has no predicate notion, e.g. compile benches).
	PredEvals int64 `json:"pred_evals,omitempty"`
	// Comparisons is the character-comparison count for text search.
	Comparisons int64 `json:"comparisons,omitempty"`
}

type benchFile struct {
	Recorded string `json:"recorded"`
	Go       string `json:"go"`
	// Gomaxprocs records the recording machine's parallelism — the
	// serving-sharded entries only show scatter-gather scaling when it
	// is > 1 (a 1-CPU recording pins correctness, not speedup).
	Gomaxprocs int          `json:"gomaxprocs"`
	Note       string       `json:"note"`
	Entries    []benchEntry `json:"entries"`
}

// entryOf converts a testing.BenchmarkResult into an entry.
func entryOf(family, name, variant string, r testing.BenchmarkResult) benchEntry {
	return benchEntry{
		Family:      family,
		Name:        name,
		Variant:     variant,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// benchExecutor measures ex.FindAll over seq and records pred-evals.
func benchExecutor(family, name, variant string, ex engine.Executor, seq []storage.Row) benchEntry {
	var evals int64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, stats := ex.FindAll(seq)
			evals = stats.PredEvals
		}
	})
	e := entryOf(family, name, variant, r)
	e.PredEvals = evals
	return e
}

func priceRows(prices []float64) []storage.Row {
	out := make([]storage.Row, len(prices))
	for i, p := range prices {
		out[i] = storage.Row{storage.NewFloat(p)}
	}
	return out
}

func doubleBottomRows(seed int64) []storage.Row {
	prices := workload.DJIA25Years(seed)
	for i := 0; i < 12; i++ {
		workload.PlantDoubleBottom(prices, 1+(i+1)*len(prices)/13)
	}
	return priceRows(prices)
}

// writeBenchJSON runs every family and writes the document to path.
func writeBenchJSON(path, variant string, seed int64, shardClusters int) error {
	doc := benchFile{
		Recorded:   time.Now().UTC().Format(time.RFC3339),
		Go:         runtime.Version(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Note:       "sqltsbench -json: ns/op, allocs, and pred-evals per benchmark family",
	}

	// E1: KMP vs naive text search.
	text := workload.RandomText(seed, 1_000_000, "abc")
	pat := "abcabcacab"
	var cmps int64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cmps = engine.NaiveStringSearch(pat, text, false).Comparisons
		}
	})
	e := entryOf("E1-kmp", "text/naive", variant, r)
	e.Comparisons = cmps
	doc.Entries = append(doc.Entries, e)
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cmps = engine.KMPSearch(pat, text, false).Comparisons
		}
	})
	e = entryOf("E1-kmp", "text/kmp", variant, r)
	e.Comparisons = cmps
	doc.Entries = append(doc.Entries, e)

	// E2/E4: compile pipeline cost.
	for _, c := range []struct{ name, sql string }{
		{"compile/example1", `SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z)
			WHERE Y.price > 1.15*X.price AND Z.price < 0.80*Y.price`},
		{"compile/example10", bench.DoubleBottomSQL},
	} {
		db := sqlts.New()
		db.MustExec(`CREATE TABLE quote (name VARCHAR(8), date DATE, price REAL)`)
		db.MustExec(`CREATE TABLE djia (date DATE, price REAL)`)
		if err := db.DeclarePositive("djia", "price"); err != nil {
			return err
		}
		// Measure real compiles: the plan cache would otherwise serve
		// every iteration after the first (the serving family below
		// records the cached path).
		db.SetPlanCacheCapacity(0)
		sql := c.sql
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := db.Prepare(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
		doc.Entries = append(doc.Entries, entryOf("E2-compile", c.name, variant, r))
	}

	// E3: Figure 5 sequence.
	fig5 := priceRows([]float64{55, 50, 45, 57, 54, 50, 47, 49, 45, 42, 55, 57, 59, 60, 57})
	p4 := bench.Example4Pattern()
	t4 := core.Compute(p4)
	doc.Entries = append(doc.Entries,
		benchExecutor("E3-fig5", "fig5/naive", variant, engine.NewNaive(p4, engine.SkipPastLastRow), fig5),
		benchExecutor("E3-fig5", "fig5/ops", variant, newOPSBench(p4, t4), fig5))

	// E5: §7 double bottom, the PR acceptance workload.
	dbSeq := doubleBottomRows(seed)
	pdb := bench.DoubleBottomPattern()
	tdb := core.Compute(pdb)
	doc.Entries = append(doc.Entries,
		benchExecutor("E5-doublebottom", "doublebottom/naive", variant, engine.NewNaive(pdb, engine.SkipPastLastRow), dbSeq),
		benchExecutor("E5-doublebottom", "doublebottom/ops", variant, newOPSBench(pdb, tdb), dbSeq))
	doc.Entries = append(doc.Entries, extraEngineEntries(variant, pdb, dbSeq)...)

	// Streaming: incremental matcher on the double-bottom workload.
	var evals int64
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := newStreamerBench(pdb)
			for _, row := range dbSeq {
				if err := s.Push(row); err != nil {
					b.Fatal(err)
				}
			}
			s.Flush()
			evals = s.Stats().PredEvals
		}
	})
	e = entryOf("streaming", "doublebottom/stream", variant, r)
	e.PredEvals = evals
	doc.Entries = append(doc.Entries, e)

	// Serving: the PR 4 end-to-end path (db.Query on SQL text) with the
	// caches cold (purged every iteration: full compile + partition sort)
	// versus warm (plan and partition both served from cache).
	servingPrices := workload.DJIA25Years(seed)
	for i := 0; i < 12; i++ {
		workload.PlantDoubleBottom(servingPrices, 1+(i+1)*len(servingPrices)/13)
	}
	sdb := sqlts.New()
	sdb.RegisterTable(workload.SeriesTable("djia", 2557, servingPrices))
	if err := sdb.DeclarePositive("djia", "price"); err != nil {
		return err
	}
	servingSQL := ta.DoubleBottom("djia", 0.02)
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sdb.PurgeCaches()
			res, err := sdb.Query(servingSQL)
			if err != nil {
				b.Fatal(err)
			}
			evals = res.Stats.PredEvals
		}
	})
	e = entryOf("serving", "serving/cold", variant, r)
	e.PredEvals = evals
	doc.Entries = append(doc.Entries, e)
	if _, err := sdb.Query(servingSQL); err != nil { // prime both caches
		return err
	}
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sdb.Query(servingSQL)
			if err != nil {
				b.Fatal(err)
			}
			if !res.PlanCached() || !res.PartitionCached() {
				b.Fatal("warm serving run missed a cache")
			}
			evals = res.Stats.PredEvals
		}
	})
	e = entryOf("serving", "serving/warm", variant, r)
	e.PredEvals = evals
	doc.Entries = append(doc.Entries, e)

	// Same warm path with the flight recorder off — the pair bounds the
	// per-query overhead of the PR 10 active-query registry and
	// wide-event ring (acceptance: warm vs warm-norecorder within 5%).
	sdb.SetFlightRecorder(false)
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sdb.Query(servingSQL)
			if err != nil {
				b.Fatal(err)
			}
			if !res.PlanCached() || !res.PartitionCached() {
				b.Fatal("warm serving run missed a cache")
			}
			evals = res.Stats.PredEvals
		}
	})
	e = entryOf("serving", "serving/warm-norecorder", variant, r)
	e.PredEvals = evals
	doc.Entries = append(doc.Entries, e)
	sdb.SetFlightRecorder(true)

	// Same warm path with statement introspection disabled — the pair
	// bounds the per-query overhead of the PR 5 statement-stats layer
	// (acceptance: warm vs warm-nointrospect within 5%).
	sdb.SetStatementStatsCapacity(0)
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sdb.Query(servingSQL)
			if err != nil {
				b.Fatal(err)
			}
			if !res.PlanCached() || !res.PartitionCached() {
				b.Fatal("warm serving run missed a cache")
			}
			evals = res.Stats.PredEvals
		}
	})
	e = entryOf("serving", "serving/warm-nointrospect", variant, r)
	e.PredEvals = evals
	doc.Entries = append(doc.Entries, e)

	// Serving-sharded: the scatter-gather path over a many-small-
	// clusters workload (the shape it targets). warm-1shard is the
	// single-shard inline baseline, warm-8shard the 8-way scatter;
	// pred-evals must be identical, and on a multi-core recorder
	// (gomaxprocs above) the 8-shard ns/op shows the scaling.
	entries, err := shardedServingEntries(variant, seed, shardClusters)
	if err != nil {
		return err
	}
	doc.Entries = append(doc.Entries, entries...)

	out, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d benchmark entries to %s\n", len(doc.Entries), path)
	return nil
}

// shardedServingEntries measures warm serving of the relaxed
// double-bottom query over a clusters-symbol quote table, one shard
// versus eight.
func shardedServingEntries(variant string, seed int64, clusters int) ([]benchEntry, error) {
	if clusters <= 0 {
		return nil, nil
	}
	tbl := workload.ClusterWalks("quote", seed, clusters, 10, 50)
	sql := ta.DoubleBottomOver("quote", "name", 0.02)
	var out []benchEntry
	for _, v := range []struct {
		name   string
		shards int
	}{
		{"serving-sharded/warm-1shard", 1},
		{"serving-sharded/warm-8shard", 8},
	} {
		db := sqlts.New()
		db.RegisterTable(tbl)
		if err := db.DeclarePositive("quote", "price"); err != nil {
			return nil, err
		}
		db.SetShards(v.shards)
		if _, err := db.Query(sql); err != nil { // prime plan + partition
			return nil, err
		}
		var evals int64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := db.Query(sql)
				if err != nil {
					b.Fatal(err)
				}
				if !res.PlanCached() || !res.PartitionCached() {
					b.Fatal("warm sharded serving run missed a cache")
				}
				evals = res.Stats.PredEvals
			}
		})
		e := entryOf("serving-sharded", v.name, variant, r)
		e.PredEvals = evals
		out = append(out, e)
	}
	return out, nil
}
