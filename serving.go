package sqlts

// The concurrent serving path: one immutable compiled Plan shared by
// every goroutine that issues the same SQL, plus two DB-level caches
// that amortize the paper's compile-time work (GSW implication queries,
// θ/φ matrices, shift/next tables, predicate kernels) and the O(n log n)
// CLUSTER BY / SEQUENCE BY sort across repeated executions:
//
//   - plans: LRU keyed by whitespace-normalized SQL text, validated
//     against the DB catalog version (DDL, table registration and
//     positive-domain declarations invalidate plans; inserts do not).
//   - parts: LRU of shard.Partition keyed by (table, clusterBy,
//     sequenceBy), validated against storage.Table's monotonic data
//     version (shards.go). Inserts bump the version, so the next query
//     refreshes only the shards the new rows landed in; in-flight
//     queries keep reading the old immutable generation.

import (
	"container/list"
	"strings"
)

// normalizeSQL is the plan-cache (and statement-stats) key function: it
// collapses runs of whitespace to single spaces, trims the ends, and
// case-folds ASCII letters, so formatting and case variants of one
// query share a cache entry (the language resolves keywords, table and
// column names case-insensitively). Quoted strings pass through
// untouched — 'INTC' and 'intc' are different values. No parsing
// happens here — on a cache hit the whole parse/analyze/optimize
// pipeline is skipped.
func normalizeSQL(sql string) string {
	var b strings.Builder
	b.Grow(len(sql))
	inQuote := false
	space := false
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		if inQuote {
			b.WriteByte(c)
			if c == '\'' {
				inQuote = false
			}
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r', '\f', '\v':
			space = true
		case '\'':
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			inQuote = true
			b.WriteByte(c)
		default:
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			b.WriteByte(c)
		}
	}
	return b.String()
}

// lru is the serving caches' recency-ordered map: compiled plans keyed
// by normalized SQL, and table partitions keyed by (table, clusterBy,
// sequenceBy). Validity checks (catalog version, table identity and
// data version) belong to the callers. Callers hold db.cacheMu.
type lru[V any] struct {
	capacity int
	order    *list.List // front = most recently used; values *lruEntry[V]
	entries  map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{capacity: capacity, order: list.New(), entries: map[string]*list.Element{}}
}

// get returns the value for key, promoting it to most recently used.
func (c *lru[V]) get(key string) (V, bool) {
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores v under key as most recently used, evicting beyond the
// capacity; with capacity ≤ 0 nothing is stored.
func (c *lru[V]) put(key string, v V) {
	if c.capacity <= 0 {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry[V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: v})
	c.resize(c.capacity)
}

func (c *lru[V]) remove(key string) {
	if el, ok := c.entries[key]; ok {
		c.order.Remove(el)
		delete(c.entries, key)
	}
}

// resize sets the capacity, dropping entries beyond it oldest-first;
// n ≤ 0 empties the cache and disables it.
func (c *lru[V]) resize(n int) {
	c.capacity = n
	for c.order.Len() > max(n, 0) {
		c.remove(c.order.Back().Value.(*lruEntry[V]).key)
	}
}

func (c *lru[V]) purge() {
	c.order.Init()
	c.entries = map[string]*list.Element{}
}

// values returns the cached values, most recently used first.
func (c *lru[V]) values() []V {
	out := make([]V, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry[V]).val)
	}
	return out
}

// partitionKey identifies one clustering of one table. Column names are
// lower-cased (resolution is case-insensitive) so spelling variants of
// the same clustering share an entry.
func partitionKey(table string, clusterBy, sequenceBy []string) string {
	var b strings.Builder
	b.WriteString(strings.ToLower(table))
	for _, c := range clusterBy {
		b.WriteByte(0)
		b.WriteString(strings.ToLower(c))
	}
	b.WriteByte(1)
	for _, s := range sequenceBy {
		b.WriteByte(0)
		b.WriteString(strings.ToLower(s))
	}
	return b.String()
}

// Default cache capacities; tune with SetPlanCacheCapacity and
// SetPartitionCacheCapacity.
const (
	defaultPlanCacheCapacity      = 256
	defaultPartitionCacheCapacity = 64
)

// CacheStats is a point-in-time snapshot of the serving caches, for
// dashboards and the REPL's \cache command. Hit/miss counters are
// cumulative since the DB was created (they mirror the
// sqlts_plan_cache_* and sqlts_partition_cache_* metric families).
type CacheStats struct {
	PlanHits     int64
	PlanMisses   int64
	PlanEntries  int
	PlanCapacity int

	PartitionHits          int64
	PartitionMisses        int64
	PartitionInvalidations int64
	PartitionEntries       int
	PartitionCapacity      int
}

// CacheStats snapshots the plan- and partition-cache state.
func (db *DB) CacheStats() CacheStats {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	m := db.metrics
	return CacheStats{
		PlanHits:     m.planCacheHits.Value(),
		PlanMisses:   m.planCacheMisses.Value(),
		PlanEntries:  db.plans.order.Len(),
		PlanCapacity: db.plans.capacity,

		PartitionHits:          m.partitionCacheHits.Value(),
		PartitionMisses:        m.partitionCacheMisses.Value(),
		PartitionInvalidations: m.partitionCacheInvalidations.Value(),
		PartitionEntries:       db.parts.order.Len(),
		PartitionCapacity:      db.parts.capacity,
	}
}

// SetPlanCacheCapacity resizes the plan cache (entries beyond the new
// capacity are dropped oldest-first); 0 disables plan caching entirely.
func (db *DB) SetPlanCacheCapacity(n int) {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	db.plans.resize(n)
}

// SetPartitionCacheCapacity resizes the partition cache (entries beyond
// the new capacity are dropped oldest-first); 0 disables partition
// caching entirely.
func (db *DB) SetPartitionCacheCapacity(n int) {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	db.parts.resize(n)
}

// PurgeCaches empties both serving caches (capacities are kept). Useful
// for cold-path measurements and tests; production code never needs it
// — versioning invalidates precisely.
func (db *DB) PurgeCaches() {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	db.plans.purge()
	db.parts.purge()
}

// lookupPlan consults the plan cache. A hit returns a Plan that is
// still valid under the current catalog version; a stale one is evicted.
func (db *DB) lookupPlan(key string) *Plan {
	catalog := db.catalog.Load()
	db.cacheMu.Lock()
	p, ok := db.plans.get(key)
	if ok && p.catalogVersion != catalog {
		db.plans.remove(key)
		p = nil
	}
	db.cacheMu.Unlock()
	if p != nil {
		db.metrics.planCacheHits.Inc()
	} else {
		db.metrics.planCacheMisses.Inc()
	}
	return p
}

func (db *DB) storePlan(key string, p *Plan) {
	db.cacheMu.Lock()
	db.plans.put(key, p)
	db.cacheMu.Unlock()
}
