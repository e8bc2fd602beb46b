package sqlts

// The partition cache and the execution path of every pattern query:
// each table clustering is held as a shard.Partition — its CLUSTER BY
// groups hash-split into N shards (1 unless SetShards says otherwise),
// each with its own version, sorted cluster slab and memoized
// projections/masks — so an insert re-sorts only the clusters of the
// shards its rows land in while every other shard (and its warm memos)
// is carried over pointer-identical. Queries run through shard.Gather:
// one worker per group of shards, inline on the caller's goroutine when
// there is one group, per-cluster results merged in global cluster
// order so rows, Stats and pred-evals never depend on N or the fan-out.

import (
	"runtime/debug"
	"sort"

	"sqlts/internal/engine"
	"sqlts/internal/pattern"
	"sqlts/internal/shard"
	"sqlts/internal/storage"
)

// SetShards sets the number of shards each table partition is
// hash-split into (n < 1 means 1, the default). More shards mean
// smaller refreshes after an insert and a wider fan-out: a query runs
// min(MaxWorkers or GOMAXPROCS, non-empty shards) workers. Results,
// statistics, and predicate-evaluation counts are identical for every
// n. Changing n drops the cached partitions.
func (db *DB) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	db.metrics.shardsConfigured.Set(int64(n))
	if db.nshards.Swap(int64(n)) != int64(n) {
		db.cacheMu.Lock()
		db.parts.purge()
		db.cacheMu.Unlock()
	}
}

// Shards returns the configured shard count.
func (db *DB) Shards() int { return int(db.nshards.Load()) }

// cachedPartition is one partition-cache entry: the partition and the
// exact table it was built from, so a table replaced under the same
// name (RegisterTable/LoadCSV) is never served its predecessor's rows.
type cachedPartition struct {
	table *storage.Table
	part  *shard.Partition
}

// partition returns the sharded partition of t for a clustering at t's
// current version and whether it was served from the cache unchanged.
// A stale entry counts as a miss and an invalidation and is refreshed
// incrementally — only shards the appended rows landed in are rebuilt;
// in-flight queries keep the old generation. A missing entry, a
// replaced table or a shard-count change builds from scratch. A bypass
// run builds a transient partition that is never stored.
func (db *DB) partition(t *storage.Table, clusterBy, sequenceBy []string, bypass bool) (*shard.Partition, bool, error) {
	nshards := db.Shards()
	if bypass {
		rows, version := t.Snapshot()
		p, err := buildPartition(t, rows, version, clusterBy, sequenceBy, nshards)
		return p, false, err
	}
	key := partitionKey(t.Name, clusterBy, sequenceBy)
	db.cacheMu.Lock()
	e, found := db.parts.get(key)
	db.cacheMu.Unlock()
	var base *shard.Partition
	if found && e.table == t && e.part.NumShards() == nshards {
		if e.part.Version() == t.Version() {
			db.metrics.partitionCacheHits.Inc()
			return e.part, true, nil
		}
		base = e.part
	}
	db.metrics.partitionCacheMisses.Inc()
	if found {
		db.metrics.partitionCacheInvalidations.Inc()
	}
	rows, version := t.Snapshot()
	var p *shard.Partition
	if base != nil {
		if np, stats, ok := base.Refresh(rows, version); ok {
			db.metrics.shardRefreshes.Inc()
			db.metrics.shardShardsRebuilt.Add(int64(stats.Dirty))
			db.metrics.shardShardsReused.Add(int64(stats.Shards - stats.Dirty))
			p = np
		}
	}
	if p == nil {
		var err error
		if p, err = buildPartition(t, rows, version, clusterBy, sequenceBy, nshards); err != nil {
			return nil, false, err
		}
		db.metrics.shardBuilds.Inc()
	}
	db.cacheMu.Lock()
	db.parts.put(key, &cachedPartition{table: t, part: p})
	db.cacheMu.Unlock()
	return p, false, nil
}

func buildPartition(t *storage.Table, rows []storage.Row, version uint64, clusterBy, sequenceBy []string, nshards int) (*shard.Partition, error) {
	cidx, err := t.ColumnIndexes(clusterBy)
	if err != nil {
		return nil, err
	}
	sidx, err := t.ColumnIndexes(sequenceBy)
	if err != nil {
		return nil, err
	}
	return shard.Build(rows, version, cidx, sidx, nshards)
}

// clusterSearcher adapts one executor to the shard.Searcher contract:
// per-cluster search, select-clause projection, budget accounting, path
// capture for Trace runs, and the containment boundary — an
// engine.Interrupt unwind becomes its typed error, any other panic a
// *PanicError.
type clusterSearcher struct {
	q     *Query
	rc    *runControl
	ex    engine.Executor
	trace bool
	// out holds the projected rows of every cluster searched so far;
	// each ClusterResult.Out is a view of its own stretch of it.
	out []storage.Row
}

func (s *clusterSearcher) Search(cr *shard.ClusterResult, proj *storage.Projection, masks *pattern.MaskSet) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if in, ok := r.(engine.Interrupt); ok {
				err = in.Err
				return
			}
			err = &PanicError{Statement: s.q.plan.key, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := faultExecCluster.Fire(); err != nil {
		return err
	}
	if err := s.rc.check(); err != nil {
		return err
	}
	if proj != nil {
		s.ex.UseProjection(proj)
	}
	if masks != nil {
		s.ex.UseMasks(masks)
	}
	cr.Matches, cr.Stats = s.ex.FindAll(cr.Rows)
	if s.trace {
		s.q.pathMu.Lock()
		s.q.lastPath = append(s.q.lastPath, pathOf(s.ex)...)
		s.q.pathMu.Unlock()
	}
	start := len(s.out)
	for _, m := range cr.Matches {
		row, err := s.q.plan.compiled.EvalSelect(cr.Rows, m.Spans)
		if err != nil {
			return err
		}
		s.out = append(s.out, row)
	}
	cr.Out = s.out[start:len(s.out):len(s.out)]
	s.rc.addMatches(cr.Stats.Matches)
	return nil
}

// ShardStat describes one shard of a cached partition.
type ShardStat struct {
	ID int `json:"id"`
	// Version counts the shard's rebuilds: an unchanged version across
	// refreshes proves the shard (and its memoized projections/masks)
	// was carried over, not rebuilt.
	Version  uint64 `json:"version"`
	Clusters int    `json:"clusters"`
	Rows     int    `json:"rows"`
	// Kernels is the number of plans with memoized projections on this
	// shard.
	Kernels int `json:"kernels"`
}

// ShardPartitionInfo describes one cached table partition, for
// /debug/shards and tests.
type ShardPartitionInfo struct {
	Table    string      `json:"table"`
	Version  uint64      `json:"version"` // table data version reflected
	Shards   int         `json:"shards"`
	Clusters int         `json:"clusters"`
	Rows     int         `json:"rows"`
	PerShard []ShardStat `json:"per_shard"`
}

// ShardInfo snapshots every cached partition, sorted by table name.
// Empty when nothing has executed yet.
func (db *DB) ShardInfo() []ShardPartitionInfo {
	db.cacheMu.Lock()
	parts := db.parts.values()
	db.cacheMu.Unlock()
	out := make([]ShardPartitionInfo, 0, len(parts))
	for _, e := range parts {
		info := ShardPartitionInfo{
			Table:    e.table.Name,
			Version:  e.part.Version(),
			Shards:   e.part.NumShards(),
			Clusters: e.part.NumClusters(),
			Rows:     e.part.Rows(),
		}
		for _, s := range e.part.Shards() {
			info.PerShard = append(info.PerShard, ShardStat{
				ID:       s.ID(),
				Version:  s.Version(),
				Clusters: s.NumClusters(),
				Rows:     s.RowCount(),
				Kernels:  s.Kernels(),
			})
		}
		out = append(out, info)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Table < out[b].Table })
	return out
}
