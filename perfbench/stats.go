package main

import (
	"sort"

	"mmdb/internal/metrics"
)

// sample is one timed operation: its latency and whether it succeeded.
type sample struct {
	ns int64
	ok bool
}

// percentiles returns the q-quantiles (0 ≤ q ≤ 1, linear interpolation
// between closest ranks) of the samples' latencies in nanoseconds.
// Failed samples rank as the slowest: each takes the larger of its own
// time and the slowest success, so adding a failure can only raise a
// percentile, never lower it. An empty input yields zeros.
func percentiles(samples []sample, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		return out
	}
	var oks, fails []int64
	for _, s := range samples {
		if s.ok {
			oks = append(oks, s.ns)
		} else {
			fails = append(fails, s.ns)
		}
	}
	sort.Slice(oks, func(i, j int) bool { return oks[i] < oks[j] })
	var slowest int64
	if len(oks) > 0 {
		slowest = oks[len(oks)-1]
	}
	for i, f := range fails {
		if f < slowest {
			fails[i] = slowest
		}
	}
	sort.Slice(fails, func(i, j int) bool { return fails[i] < fails[j] })
	all := append(oks, fails...)
	for i, q := range qs {
		idx := q * float64(len(all)-1)
		lo := int(idx)
		v := float64(all[lo])
		if lo+1 < len(all) {
			v += (idx - float64(lo)) * float64(all[lo+1]-all[lo])
		}
		out[i] = v
	}
	return out
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimmedMean returns the mean of xs without the lowest and the highest
// share of them (0 for none). Unlike the median it moves smoothly as a
// two-mode distribution shifts weight between its modes, and unlike the
// mean it ignores samples the host delayed many times over.
func trimmedMean(xs []float64, share float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(share * float64(len(s)))
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// okRatio is the share of attempted operations that succeeded; a run
// that attempted nothing has no successes.
func okRatio(attempted, failed int64) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}

// perOp divides a total by an operation count, 0 when there are none.
func perOp(total float64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return total / float64(ops)
}

// remainder is the part of a total that its measured parts do not
// explain: total − Σ parts. A layer budget adds up when it is near 0.
func remainder(total float64, parts ...float64) float64 {
	for _, p := range parts {
		total -= p
	}
	return total
}

// delta is the change of a database's instruments between two
// snapshots of one registry: counters and histogram count and sum are
// differenced.
type delta struct {
	before, after metrics.Snapshot
}

func counterOf(s metrics.Snapshot, sub, name string) int64 {
	ss := s.Subsystem(sub)
	if ss == nil {
		return 0
	}
	return ss.Counter(name)
}

func histOf(s metrics.Snapshot, sub, name string) metrics.HistogramValue {
	ss := s.Subsystem(sub)
	if ss == nil {
		return metrics.HistogramValue{}
	}
	if h := ss.Histogram(name); h != nil {
		return *h
	}
	return metrics.HistogramValue{}
}

// counter returns a counter's increase.
func (d delta) counter(sub, name string) int64 {
	return counterOf(d.after, sub, name) - counterOf(d.before, sub, name)
}

// hist returns the observation count and sum added between the two
// snapshots.
func (d delta) hist(sub, name string) (count, sum int64) {
	a, b := histOf(d.after, sub, name), histOf(d.before, sub, name)
	return a.Count - b.Count, a.Sum - b.Sum
}

// totals accumulates instrument deltas across database generations:
// every crash replaces the instance and its registry, so a run that
// crashes sums the delta of each generation it lived through.
type totals struct {
	counters map[string]int64
	hcount   map[string]int64
	hsum     map[string]int64
	hmax     map[string]int64
}

func newTotals() *totals {
	return &totals{
		counters: map[string]int64{}, hcount: map[string]int64{},
		hsum: map[string]int64{}, hmax: map[string]int64{},
	}
}

// add folds one generation's delta into the totals.
func (t *totals) add(d delta) {
	for _, ss := range d.after.Subsystems {
		for _, c := range ss.Counters {
			t.counters[ss.Name+"/"+c.Name] += d.counter(ss.Name, c.Name)
		}
		for _, h := range ss.Histograms {
			key := ss.Name + "/" + h.Name
			c, s := d.hist(ss.Name, h.Name)
			t.hcount[key] += c
			t.hsum[key] += s
			if c > 0 && h.Max > t.hmax[key] {
				t.hmax[key] = h.Max
			}
		}
	}
}

// counter returns a summed counter delta ("sub/name").
func (t *totals) counter(key string) int64 { return t.counters[key] }

// count returns a histogram's summed observation count.
func (t *totals) count(key string) int64 { return t.hcount[key] }

// sum returns a histogram's summed observation total.
func (t *totals) sum(key string) int64 { return t.hsum[key] }

// mean returns a histogram's Sum/Count over every generation.
func (t *totals) mean(key string) float64 { return perOp(float64(t.hsum[key]), t.hcount[key]) }

// max returns a histogram's largest observation in any generation.
func (t *totals) max(key string) int64 { return t.hmax[key] }
