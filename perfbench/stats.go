package main

import (
	"hash/fnv"
	"math"
	"sort"

	"sqlts/internal/storage"
)

// samples is one timing series in milliseconds.
type samples []float64

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between order statistics.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	s = append(samples(nil), s...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns Q1, median and Q3 with the method Python's
// statistics.quantiles(values, n=4) uses by default ("exclusive"), so
// spreads printed here match the ones computed from saved run files.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		// statistics.quantiles, method="exclusive", transcribed with its
		// integer arithmetic and clamping.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), samples(s).quantile(0.5), cut(3)
}

// rowKey is a canonical, type-tagged encoding of one output row.
func rowKey(b []byte, r storage.Row) []byte {
	for _, v := range r {
		b = append(b, byte(v.Type()))
		b = v.AppendKey(b)
		b = append(b, 0x1f)
	}
	return b
}

// fingerprint hashes a result's rows in order: two results agree
// bit-for-bit on their rows exactly when (up to hash collisions) their
// fingerprints are equal.
func fingerprint(rows []storage.Row) uint64 {
	h := fnv.New64a()
	var b []byte
	for _, r := range rows {
		b = rowKey(b[:0], r)
		b = append(b, 0x1e)
		h.Write(b)
	}
	return h.Sum64()
}

// rowMultiset counts rows by canonical key, for order-insensitive
// comparisons (a stream emits in completion order, a batch query in
// cluster order).
func rowMultiset(rows []storage.Row) map[string]int {
	m := make(map[string]int, len(rows))
	for _, r := range rows {
		m[string(rowKey(nil, r))]++
	}
	return m
}

func sameMultiset(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}
