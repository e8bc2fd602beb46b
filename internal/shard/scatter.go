package shard

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"sqlts/internal/engine"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// ClusterResult is the per-cluster unit a Runner hands to the gatherer:
// the cluster searched, the shard that owns it, and what the search
// found. A single runner reuses one ClusterResult for all its clusters,
// so emit callbacks must not retain the pointer past the call.
type ClusterResult struct {
	// Cluster is the cluster searched: its table-wide index in
	// first-appearance order (the order results are emitted in) and its
	// sequence-sorted input rows.
	Cluster
	// Shard is the ID of the shard owning the cluster.
	Shard int
	// Matches and Out are the pattern matches and their projected output
	// rows, in match order.
	Matches []engine.Match
	Out     []storage.Row
	// Stats are the search counters accumulated within the cluster.
	Stats engine.Stats
}

// Searcher runs the compiled pattern over single clusters. One Searcher
// is created per runner — executors carry per-search state — and is
// handed each cluster (cr.Cluster) plus that cluster's memoized
// projection and mask set (nil when the request disabled them or the
// kernel compiled nothing). Search fills cr.Matches, cr.Out and
// cr.Stats, or returns the error that stops the scatter.
// Implementations own their containment boundary: a panicking predicate
// must come back as an error, not unwind.
type Searcher interface {
	Search(cr *ClusterResult, proj *storage.Projection, masks *pattern.MaskSet) error
}

// Request is one scatter-gather execution over a set of runners: the
// plan goes in (kernel + searcher factory), a merged match stream comes
// out.
type Request struct {
	// Kernel keys the per-shard memoized projections and mask sets.
	Kernel *pattern.Kernel
	// NoProjections skips the memoized columnar projections (the
	// interpreter path); NoMasks skips the selection bitmasks while
	// keeping projections. Both mirror RunOptions.NoKernel/NoVectorize.
	NoProjections bool
	NoMasks       bool

	// NewSearcher returns a fresh per-runner searcher. vectorized
	// reports whether Search calls will be handed mask sets, so the
	// implementation can configure its executor once.
	NewSearcher func(vectorized bool) Searcher
}

// Runner is the scatter unit: it owns a fixed set of clusters and hands
// their results to emit in ascending global order. Group is the
// in-process implementation over one or more shards.
type Runner interface {
	// Globals returns the ascending global indices of the clusters the
	// runner emits.
	Globals() []int
	// Run searches the runner's clusters, calling emit once per cluster
	// in ascending global order, and returns the first error a search or
	// emit reported (nil only after every cluster was emitted).
	Run(req *Request, emit func(*ClusterResult) error) error
}

// Group is a set of shards searched by one worker. Its clusters — the
// union of its shards' — are searched and emitted in ascending global
// order, which is what lets the gatherer stream-merge groups with one
// bounded channel each.
type Group struct {
	shards  []*Shard
	refs    []groupRef // parallel to globals; ascending global order
	globals []int
}

// groupRef locates one cluster inside a Group's shard list.
type groupRef struct{ slot, local int32 }

// Globals implements Runner.
func (g *Group) Globals() []int { return g.globals }

// Layout plans a scatter over p for a worker budget: shards holding
// clusters are dealt round-robin into min(workers, non-empty shards)
// groups, one worker each. Layouts are pure functions of the
// (immutable) partition and the budget, so they are memoized per
// partition generation — warm queries reuse the group structure the way
// they reuse projections.
func Layout(p *Partition, workers int) []*Group {
	if workers < 1 {
		workers = 1
	}
	p.layoutMu.Lock()
	defer p.layoutMu.Unlock()
	if gs, ok := p.layouts[workers]; ok {
		return gs
	}
	gs := buildLayout(p, workers)
	if p.layouts == nil {
		p.layouts = map[int][]*Group{}
	}
	p.layouts[workers] = gs
	return gs
}

// buildLayout constructs a layout in O(clusters): one bucketing walk
// over the partition's global cluster order, no sorting.
func buildLayout(p *Partition, workers int) []*Group {
	var active []int32 // shard ids with clusters
	for sid, s := range p.shards {
		if len(s.clusters) > 0 {
			active = append(active, int32(sid))
		}
	}
	if len(active) == 0 {
		return nil
	}
	ngroups := workers
	if ngroups > len(active) {
		ngroups = len(active)
	}
	groups := make([]*Group, ngroups)
	for i := range groups {
		groups[i] = &Group{}
	}
	// slotOf/groupOf: shard id → (group, index within the group's shards).
	groupOf := make([]int32, len(p.shards))
	slotOf := make([]int32, len(p.shards))
	for i, sid := range active {
		gi := i % ngroups
		g := groups[gi]
		groupOf[sid] = int32(gi)
		slotOf[sid] = int32(len(g.shards))
		g.shards = append(g.shards, p.shards[sid])
	}
	for _, g := range groups {
		n := 0
		for _, s := range g.shards {
			n += len(s.clusters)
		}
		g.refs = make([]groupRef, 0, n)
		g.globals = make([]int, 0, n)
	}
	// Walking p.refs in global order distributes each group's clusters to
	// it already ascending.
	for gi, r := range p.refs {
		g := groups[groupOf[r.shard]]
		g.refs = append(g.refs, groupRef{slot: slotOf[r.shard], local: r.local})
		g.globals = append(g.globals, gi)
	}
	return groups
}

// Runners converts a layout to the interface slice Gather consumes.
func Runners(groups []*Group) []Runner {
	rs := make([]Runner, len(groups))
	for i, g := range groups {
		rs[i] = g
	}
	return rs
}

// fetch resolves the memoized projections and masks for each of the
// group's shards per the request's kernel settings: projections only
// when the kernel compiled something, masks only on top of projections.
func (g *Group) fetch(req *Request) (projs [][]*storage.Projection, masks [][]*pattern.MaskSet, vectorized bool) {
	projs = make([][]*storage.Projection, len(g.shards))
	masks = make([][]*pattern.MaskSet, len(g.shards))
	if req.NoProjections || req.Kernel == nil {
		return projs, masks, false
	}
	for si, s := range g.shards {
		projs[si] = s.Projections(req.Kernel)
		if projs[si] != nil && !req.NoMasks {
			ms, _ := s.Masks(req.Kernel)
			masks[si] = ms
			vectorized = vectorized || ms != nil
		}
	}
	return projs, masks, vectorized
}

// Run implements Runner: one searcher walks the group's clusters in
// ascending global order, reusing a single ClusterResult.
func (g *Group) Run(req *Request, emit func(*ClusterResult) error) error {
	if len(g.refs) == 0 {
		return nil
	}
	projs, masks, vectorized := g.fetch(req)
	s := req.NewSearcher(vectorized)
	var cr ClusterResult
	for _, r := range g.refs {
		sh := g.shards[r.slot]
		cr = ClusterResult{Cluster: sh.clusters[r.local], Shard: sh.id}
		var p *storage.Projection
		var m *pattern.MaskSet
		if projs[r.slot] != nil {
			p = projs[r.slot][r.local]
		}
		if masks[r.slot] != nil {
			m = masks[r.slot][r.local]
		}
		if err := s.Search(&cr, p, m); err != nil {
			return err
		}
		if err := emit(&cr); err != nil {
			return err
		}
	}
	return nil
}

// runnerBuffer bounds each concurrent runner's in-flight results (the
// channel between it and the gatherer): deep enough that a runner
// rarely stalls while the merge drains another runner's clusters,
// shallow enough that a fast runner cannot buffer an unbounded backlog
// while the merge waits on a slow one.
const runnerBuffer = 16

// errStopped is what a concurrent runner's emit returns once another
// runner (or the consumer) has failed; it is never reported.
var errStopped = errors.New("shard: scatter stopped")

// runnerPanic converts a panic that escaped a runner (the Searcher
// contract says it shouldn't) into an error, so a contract violation
// never unwinds a runner goroutine or deadlocks the gatherer.
func runnerPanic(r any) error {
	return fmt.Errorf("shard: runner panic: %v\n%s", r, debug.Stack())
}

// Gather runs req across the runners and hands their per-cluster
// results to emit in ascending global order. A single runner runs
// inline on the caller's goroutine and emits straight through, with no
// channel and no copy. Several runners each get a goroutine and one
// bounded channel; merging is a k-way walk over the runners' ascending
// global lists, so memory in flight is O(runners × runnerBuffer), never
// O(clusters). The first error — a cluster's, or emit's — stops every
// runner, and Gather waits for all of them before returning it.
func Gather(runners []Runner, req *Request, emit func(*ClusterResult) error) (err error) {
	if len(runners) == 1 {
		defer func() {
			if r := recover(); r != nil {
				err = runnerPanic(r)
			}
		}()
		return runners[0].Run(req, emit)
	}

	var stop atomic.Bool
	total := 0
	heads := make([][]int, len(runners))
	chans := make([]chan ClusterResult, len(runners))
	errs := make([]error, len(runners))
	for i, r := range runners {
		heads[i] = r.Globals()
		total += len(heads[i])
		ch := make(chan ClusterResult, runnerBuffer)
		chans[i] = ch
		go func() {
			defer close(ch)
			defer func() {
				if p := recover(); p != nil {
					errs[i] = runnerPanic(p)
					stop.Store(true)
				}
			}()
			errs[i] = r.Run(req, func(cr *ClusterResult) error {
				if stop.Load() {
					return errStopped
				}
				ch <- *cr
				return nil
			})
			if errs[i] != nil {
				stop.Store(true)
			}
		}()
	}

	idx := make([]int, len(runners))
	merged := 0
	for merged < total {
		// Pick the runner whose next cluster is globally smallest. Runner
		// counts are small (≤ worker budget), so a linear scan beats heap
		// bookkeeping.
		pick, best := -1, 0
		for i := range runners {
			if idx[i] >= len(heads[i]) {
				continue
			}
			if g := heads[i][idx[i]]; pick < 0 || g < best {
				pick, best = i, g
			}
		}
		res, ok := <-chans[pick]
		if !ok {
			// The runner stopped early; its error surfaces below.
			break
		}
		idx[pick]++
		if err = emit(&res); err != nil {
			break
		}
		merged++
	}

	// Drain every channel to completion so all goroutines exit; each
	// runner's error is written before its channel closes.
	if merged < total {
		stop.Store(true)
	}
	for _, ch := range chans {
		for range ch {
		}
	}
	if err != nil {
		return err
	}
	for _, e := range errs {
		if e != nil && e != errStopped {
			return e
		}
	}
	if merged < total {
		// A runner under-delivered without reporting an error; surface it
		// rather than returning a silently truncated result.
		return fmt.Errorf("shard: scatter stopped after %d/%d clusters without error", merged, total)
	}
	return nil
}
