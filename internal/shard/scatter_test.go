package shard_test

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sqlts/internal/engine"
	"sqlts/internal/pattern"
	"sqlts/internal/shard"
	"sqlts/internal/storage"
	"sqlts/internal/testutil"
)

// fakeSearcher returns a deterministic per-cluster result keyed off the
// global index, with optional failure injection.
type fakeSearcher struct {
	failAt  int // global index that returns an error (-1 = none)
	panicAt int // global index that panics (-1 = none)
	calls   *atomic.Int64
}

var errBoom = errors.New("boom")

func (f *fakeSearcher) Search(cr *shard.ClusterResult, proj *storage.Projection, masks *pattern.MaskSet) error {
	if f.calls != nil {
		f.calls.Add(1)
	}
	if cr.Global == f.failAt {
		return errBoom
	}
	if cr.Global == f.panicAt {
		panic("kaboom")
	}
	cr.Stats = engine.Stats{PredEvals: int64(cr.Global + 1)}
	cr.Out = []storage.Row{{storage.NewInt(int64(cr.Global))}}
	return nil
}

func fakeRequest(failAt, panicAt int, calls *atomic.Int64) *shard.Request {
	return &shard.Request{
		NewSearcher: func(bool) shard.Searcher {
			return &fakeSearcher{failAt: failAt, panicAt: panicAt, calls: calls}
		},
	}
}

// TestLayoutCoverage: every worker budget must yield groups that cover
// each global cluster exactly once, in ascending order per group, with
// one worker per group: min(budget, non-empty shards) groups.
func TestLayoutCoverage(t *testing.T) {
	tbl := quoteTable(t, 12, 4)
	p := buildFrom(t, tbl, 5)
	active := 0
	for _, s := range p.Shards() {
		if s.NumClusters() > 0 {
			active++
		}
	}
	for _, workers := range []int{1, 2, 3, 5, 8, 32} {
		groups := shard.Layout(p, workers)
		seen := map[int]bool{}
		for _, g := range groups {
			last := -1
			for _, gi := range g.Globals() {
				if gi <= last {
					t.Fatalf("workers=%d: group globals not ascending (%d after %d)", workers, gi, last)
				}
				last = gi
				if seen[gi] {
					t.Fatalf("workers=%d: cluster %d in two groups", workers, gi)
				}
				seen[gi] = true
			}
		}
		if len(seen) != p.NumClusters() {
			t.Fatalf("workers=%d: layout covers %d clusters, want %d", workers, len(seen), p.NumClusters())
		}
		if want := min(workers, active); len(groups) != want {
			t.Fatalf("workers=%d: %d groups, want %d", workers, len(groups), want)
		}
	}
}

// TestLayoutMemoized: layouts are pure functions of the partition and
// budget, served from the partition's memo on repeat.
func TestLayoutMemoized(t *testing.T) {
	tbl := quoteTable(t, 6, 3)
	p := buildFrom(t, tbl, 3)
	a, b := shard.Layout(p, 2), shard.Layout(p, 2)
	if len(a) == 0 || len(a) != len(b) || a[0] != b[0] {
		t.Fatal("Layout not memoized per (partition, workers)")
	}
	if c := shard.Layout(p, 3); len(c) > 0 && c[0] == a[0] {
		t.Fatal("different worker budgets share a layout")
	}
}

// TestGatherOrderedAndComplete: the merged stream must visit every
// cluster exactly once in ascending global order regardless of how the
// worker budget slices the shards.
func TestGatherOrderedAndComplete(t *testing.T) {
	tbl := quoteTable(t, 17, 5)
	p := buildFrom(t, tbl, 6)
	wantEvals := int64(0)
	for gi := 0; gi < p.NumClusters(); gi++ {
		wantEvals += int64(gi + 1)
	}
	for _, workers := range []int{1, 2, 4, 16} {
		req := fakeRequest(-1, -1, nil)
		var got []int
		var evals int64
		err := shard.Gather(shard.Runners(shard.Layout(p, workers)), req, func(cr *shard.ClusterResult) error {
			got = append(got, cr.Global)
			evals += cr.Stats.PredEvals
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != p.NumClusters() {
			t.Fatalf("workers=%d: %d clusters emitted, want %d", workers, len(got), p.NumClusters())
		}
		for i, gi := range got {
			if gi != i {
				t.Fatalf("workers=%d: position %d got cluster %d (order broken)", workers, i, gi)
			}
		}
		if evals != wantEvals {
			t.Fatalf("workers=%d: stats summed to %d, want %d", workers, evals, wantEvals)
		}
	}
}

// TestGatherSingleRunnerInline: one runner runs on the caller's
// goroutine — no goroutine is started — and hands every cluster to emit
// through one reused ClusterResult.
func TestGatherSingleRunnerInline(t *testing.T) {
	tbl := quoteTable(t, 9, 3)
	p := buildFrom(t, tbl, 1)
	runners := shard.Runners(shard.Layout(p, 4))
	if len(runners) != 1 {
		t.Fatalf("one shard laid out as %d runners", len(runners))
	}
	base := runtime.NumGoroutine()
	var first *shard.ClusterResult
	n := 0
	err := shard.Gather(runners, fakeRequest(-1, -1, nil), func(cr *shard.ClusterResult) error {
		if g := runtime.NumGoroutine(); g != base {
			t.Errorf("cluster %d: %d goroutines during an inline gather, want %d", cr.Global, g, base)
		}
		if first == nil {
			first = cr
		} else if cr != first {
			t.Errorf("cluster %d: ClusterResult not reused", cr.Global)
		}
		if cr.Global != n {
			t.Errorf("position %d got cluster %d", n, cr.Global)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != p.NumClusters() {
		t.Fatalf("emitted %d clusters, want %d", n, p.NumClusters())
	}
}

// TestGatherMergesInterleavedRunners: Gather's k-way merge must
// interleave runners whose global lists alternate.
func TestGatherMergesInterleavedRunners(t *testing.T) {
	runners := []shard.Runner{
		&fakeRunner{globals: []int{0, 2, 4, 6}},
		&fakeRunner{globals: []int{1, 3, 5}},
	}
	var got []int
	err := shard.Gather(runners, &shard.Request{}, func(cr *shard.ClusterResult) error {
		got = append(got, cr.Global)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, gi := range got {
		if gi != i {
			t.Fatalf("position %d got cluster %d", i, gi)
		}
	}
	if len(got) != 7 {
		t.Fatalf("merged %d clusters, want 7", len(got))
	}
}

// fakeRunner emits one empty result per global, in order.
type fakeRunner struct{ globals []int }

func (r *fakeRunner) Globals() []int { return r.globals }
func (r *fakeRunner) Run(req *shard.Request, emit func(*shard.ClusterResult) error) error {
	for _, gi := range r.globals {
		if err := emit(&shard.ClusterResult{Cluster: shard.Cluster{Global: gi}}); err != nil {
			return err
		}
	}
	return nil
}

// TestGatherStopsOnError: a failing cluster surfaces its error, stops
// the scatter short of the remaining clusters, and leaves no runner
// goroutine stuck.
func TestGatherStopsOnError(t *testing.T) {
	defer testutil.LeakCheck(t)()
	tbl := quoteTable(t, 20, 4)
	p := buildFrom(t, tbl, 4)
	var emitted []int
	err := shard.Gather(shard.Runners(shard.Layout(p, 4)), fakeRequest(7, -1, nil), func(cr *shard.ClusterResult) error {
		emitted = append(emitted, cr.Global)
		return nil
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
	for _, gi := range emitted {
		if gi >= 7 {
			t.Fatalf("cluster %d emitted at or after the failing cluster 7", gi)
		}
	}
}

// TestGatherEarlyStopSkipsWork: with a serial single worker, an error on
// the first cluster must stop the scatter before it searches everything.
func TestGatherEarlyStopSkipsWork(t *testing.T) {
	tbl := quoteTable(t, 30, 3)
	p := buildFrom(t, tbl, 1)
	var calls atomic.Int64
	req := fakeRequest(0, -1, &calls)
	err := shard.Gather(shard.Runners(shard.Layout(p, 1)), req, func(*shard.ClusterResult) error { return nil })
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want errBoom", err)
	}
	if n := calls.Load(); n >= int64(p.NumClusters()) {
		t.Fatalf("searched all %d clusters despite failing on the first", n)
	}
}

// TestGatherPanicContained: a searcher panic (a Searcher-contract
// violation) must come back as an error, not unwind or deadlock.
func TestGatherPanicContained(t *testing.T) {
	tbl := quoteTable(t, 10, 4)
	p := buildFrom(t, tbl, 3)
	for _, workers := range []int{1, 4} {
		req := fakeRequest(-1, 5, nil)
		err := shard.Gather(shard.Runners(shard.Layout(p, workers)), req, func(*shard.ClusterResult) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "runner panic") {
			t.Fatalf("workers=%d: err = %v, want contained runner panic", workers, err)
		}
	}
}

// TestGatherEmitError: the gatherer's consumer can stop the scatter too.
func TestGatherEmitError(t *testing.T) {
	tbl := quoteTable(t, 12, 4)
	p := buildFrom(t, tbl, 4)
	errStop := errors.New("enough")
	emitted := 0
	err := shard.Gather(shard.Runners(shard.Layout(p, 4)), fakeRequest(-1, -1, nil), func(*shard.ClusterResult) error {
		emitted++
		if emitted == 3 {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("err = %v, want errStop", err)
	}
}

// TestGatherConcurrentScatters: one partition must serve overlapping
// scatters (warm-path queries share the cached generation).
func TestGatherConcurrentScatters(t *testing.T) {
	tbl := quoteTable(t, 15, 4)
	p := buildFrom(t, tbl, 4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got []int
			err := shard.Gather(shard.Runners(shard.Layout(p, 4)), fakeRequest(-1, -1, nil), func(cr *shard.ClusterResult) error {
				got = append(got, cr.Global)
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			for i, gi := range got {
				if gi != i {
					t.Errorf("position %d got cluster %d", i, gi)
					return
				}
			}
		}()
	}
	wg.Wait()
}
