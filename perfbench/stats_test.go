package main

import (
	"math"
	"testing"

	"mmdb/internal/metrics"
)

func TestPercentilesRankFailuresSlowest(t *testing.T) {
	var ok []sample
	for i := 1; i <= 100; i++ {
		ok = append(ok, sample{ns: int64(i) * 1000, ok: true})
	}
	base := percentiles(ok, 0.5, 0.99)
	if base[0] != 50500 || math.Abs(base[1]-99010) > 1e-6 {
		t.Fatalf("all-success percentiles = %v, want [50500 99010]", base)
	}
	// Failures that returned fast must still rank after every success.
	withFails := append(append([]sample(nil), ok...), sample{ns: 1, ok: false}, sample{ns: 2, ok: false})
	got := percentiles(withFails, 0.5, 0.99, 1)
	if got[0] < base[0] || got[1] < base[1] {
		t.Fatalf("failures lowered a percentile: %v vs %v", got, base)
	}
	if got[2] != 100000 {
		t.Fatalf("max with fast failures = %v, want the slowest success 100000", got[2])
	}
	// A failure slower than every success keeps its own time.
	slow := append(append([]sample(nil), ok...), sample{ns: 500000, ok: false})
	if p := percentiles(slow, 1)[0]; p != 500000 {
		t.Fatalf("max with a slow failure = %v, want 500000", p)
	}
	// Only failures: nothing to rank below, their own times stand.
	if p := percentiles([]sample{{ns: 7, ok: false}}, 0.5)[0]; p != 7 {
		t.Fatalf("all-failure median = %v, want 7", p)
	}
	if p := percentiles(nil, 0.5)[0]; p != 0 {
		t.Fatalf("empty median = %v, want 0", p)
	}
}

func TestOkRatio(t *testing.T) {
	for _, c := range []struct {
		attempted, failed int64
		want              float64
	}{
		{100, 0, 1},
		{100, 25, 0.75},
		{4, 4, 0},
		{0, 0, 0},
	} {
		if got := okRatio(c.attempted, c.failed); got != c.want {
			t.Errorf("okRatio(%d, %d) = %v, want %v", c.attempted, c.failed, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}

func TestTrimmedMean(t *testing.T) {
	xs := []float64{100, 1, 2, 3, 4, 5, 6, 7, 8, -50}
	if m := trimmedMean(xs, 0.1); m != 4.5 {
		t.Errorf("trimmed mean = %v, want 4.5 (the extremes dropped)", m)
	}
	if m := trimmedMean([]float64{2, 4}, 0.1); m != 3 {
		t.Errorf("trimmed mean of 2 = %v, want 3 (nothing to drop)", m)
	}
	if m := trimmedMean(nil, 0.1); m != 0 {
		t.Errorf("empty trimmed mean = %v", m)
	}
	// A two-mode sample: the trimmed mean rises steadily with the
	// slow mode's weight, where the median jumps from one mode to the
	// other.
	mix := func(slow int) []float64 {
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = 0.5
			if i < slow {
				xs[i] = 2.5
			}
		}
		return xs
	}
	// Ten more slow samples among the 80 kept, each 2 longer: 0.25.
	a, b := trimmedMean(mix(45), 0.1), trimmedMean(mix(55), 0.1)
	if d := b - a; d < 0.2499 || d > 0.2501 {
		t.Errorf("trimmed mean moved %v from 45%% to 55%% slow, want 0.25", d)
	}
	if median(mix(49)) != 0.5 || median(mix(51)) != 2.5 {
		t.Errorf("median of the mixes = %v, %v", median(mix(49)), median(mix(51)))
	}
}

func TestDeltaAcrossSnapshotPair(t *testing.T) {
	reg := metrics.NewRegistry()
	sub := reg.Subsystem("txn")
	commits := sub.Counter("commits", "txns", "")
	lat := sub.Histogram("commit_latency", "ns", "")
	commits.Add(5)
	lat.Observe(100)
	before := reg.Snapshot()
	commits.Add(3)
	lat.Observe(200)
	lat.Observe(400)
	d := delta{before: before, after: reg.Snapshot()}

	if got := d.counter("txn", "commits"); got != 3 {
		t.Errorf("counter delta = %d, want 3", got)
	}
	if c, s := d.hist("txn", "commit_latency"); c != 2 || s != 600 {
		t.Errorf("histogram delta = (%d, %d), want (2, 600)", c, s)
	}
	if got := d.counter("nosuch", "commits"); got != 0 {
		t.Errorf("missing subsystem counter = %d, want 0", got)
	}

	// A crash replaces the registry: the next generation's delta starts
	// from an empty snapshot, and totals sum both generations.
	reg2 := metrics.NewRegistry()
	sub2 := reg2.Subsystem("txn")
	sub2.Counter("commits", "txns", "").Add(4)
	sub2.Histogram("commit_latency", "ns", "").Observe(1000)
	tot := newTotals()
	tot.add(d)
	tot.add(delta{after: reg2.Snapshot()})
	if got := tot.counter("txn/commits"); got != 7 {
		t.Errorf("summed counter = %d, want 7", got)
	}
	if c, s := tot.count("txn/commit_latency"), tot.sum("txn/commit_latency"); c != 3 || s != 1600 {
		t.Errorf("summed histogram = (%d, %d), want (3, 1600)", c, s)
	}
	if m := tot.max("txn/commit_latency"); m != 1000 {
		t.Errorf("max over generations = %d, want 1000", m)
	}
	if m := tot.mean("txn/commit_latency"); m != 1600.0/3 {
		t.Errorf("mean over generations = %v, want %v", m, 1600.0/3)
	}
}
