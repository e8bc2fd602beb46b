package sqlts

import (
	"reflect"
	"regexp"
	"testing"
)

// TestMetricsHygiene enforces the registry's naming and registration
// discipline: every family matches the sqlts_ naming scheme, no family
// appears twice, no two families count the same cache events, and every
// instrument field of dbMetrics owns its own family — two fields
// accidentally registered under one name would silently share a
// counter.
func TestMetricsHygiene(t *testing.T) {
	db := New()
	families := db.Metrics().Families()
	if len(families) == 0 {
		t.Fatal("registry is empty")
	}

	nameRE := regexp.MustCompile(`^sqlts_[a-z_]+(_total|_seconds)?$`)
	seen := map[string]bool{}
	for _, name := range families {
		if !nameRE.MatchString(name) {
			t.Errorf("family %q does not match sqlts_[a-z_]+(_total|_seconds)?", name)
		}
		if seen[name] {
			t.Errorf("family %q listed twice", name)
		}
		seen[name] = true
	}

	// The partition cache is the one cache of shard.Partitions: its
	// hits, misses and invalidations are counted once, by the
	// sqlts_partition_cache_* families, never by a shard-cache twin.
	for _, gone := range []string{"sqlts_shard_cache_hits_total", "sqlts_shard_cache_misses_total"} {
		if seen[gone] {
			t.Errorf("family %q duplicates sqlts_partition_cache_*", gone)
		}
	}
	for _, want := range []string{"sqlts_partition_cache_hits_total", "sqlts_partition_cache_misses_total", "sqlts_partition_cache_invalidations_total"} {
		if !seen[want] {
			t.Errorf("family %q not registered", want)
		}
	}

	// Count dbMetrics' instrument fields by reflection: each must have
	// registered its own family, so the counts must agree exactly.
	v := reflect.ValueOf(*db.metrics)
	instruments := 0
	for i := 0; i < v.NumField(); i++ {
		switch v.Field(i).Type().String() {
		case "*obs.Counter", "*obs.Gauge", "*obs.Histogram":
			instruments++
		}
	}
	if instruments != len(families) {
		t.Errorf("dbMetrics holds %d instruments but the registry has %d families — two fields share a name",
			instruments, len(families))
	}
}
