package main

import "sort"

// quantile returns the q'th quantile (0 <= q <= 1) of sorted, which
// must be ascending and non-empty.  It interpolates between the two
// neighbouring order statistics at position q*(n+1), the "exclusive"
// method of Python's statistics.quantiles, so the quartiles printed by
// -repeat and -compare are the ones the acceptance driver computes; on
// the thousands of latency samples of a measured pass it is
// indistinguishable from nearest-rank.  Every percentile the benchmark
// reports goes through this one function.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n+1)
	j := int(pos)
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	frac := pos - float64(j)
	return sorted[j-1]*(1-frac) + sorted[j]*frac
}

// sortedCopy returns vals in ascending order without disturbing vals.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// spread summarizes repeated measurements of one metric: the median
// and the interquartile range as a share of the median — the figure a
// regression bound is compared against.
type spread struct {
	Q1, Median, Q3 float64
	IQROverMedian  float64
}

func spreadOf(vals []float64) spread {
	s := sortedCopy(vals)
	sp := spread{Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75)}
	if sp.Median != 0 {
		sp.IQROverMedian = (sp.Q3 - sp.Q1) / sp.Median
		if sp.IQROverMedian < 0 {
			sp.IQROverMedian = -sp.IQROverMedian
		}
	}
	return sp
}
