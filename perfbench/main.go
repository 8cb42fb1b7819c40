// Command perfbench is the repository benchmark. It drives one of three
// workloads against the database in mmdbserve's default configuration,
// checks the results, and prints every metric by name and unit, ending
// with one JSON line:
//
//	bash perfbench/run.sh --workload tpcb --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	tpcb     open-loop debit/credit plus balance lookups over loopback TCP
//	ingest   closed-loop bulk insert into one relation with two indexes
//	restart  repeated update burst, crash, recover and sweep
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it records a span around every call the benchmark makes into a layer,
// writes them as Chrome trace_event JSON under -out, and reports the
// per-layer metrics instead. A failed correctness gate prints the result
// with "correct": false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"mmdb"
	"mmdb/internal/fault"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the database sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"txn_p50_ms", "ms"}, {"read_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"ok_ratio", "ratio"},
	{"cpu_us_per_op", "us"},
	{"write_amp", "ratio"},
	{"peak_rss_mb", "MiB"},
	{"restart_open_ms", "ms"}, {"first_commit_ms", "ms"},
	{"ttp99_ms", "ms"}, {"sweep_ms", "ms"},
}

// perLayer are the metrics of single layers, from the traced run.
var perLayer = []metricDef{
	{"server.requests", "count"}, {"server.exec_mean_us", "us"},
	{"server.read_exec_mean_us", "us"}, {"server.wait_mean_us", "us"},
	{"server.reqs_per_flush", "ratio"},
	{"gen.lateness_p99_ms", "ms"},
	{"lock.waits", "count"}, {"lock.wait_ms", "ms"}, {"lock.deadlocks", "count"},
	{"mmdb.begin_mean_us", "us"}, {"mmdb.insert_mean_us", "us"}, {"mmdb.insert_p99_us", "us"},
	{"mmdb.commit_mean_us", "us"}, {"mmdb.commit_p99_us", "us"}, {"mmdb.update_mean_us", "us"},
	{"ttree.lookup_mean_us", "us"}, {"linhash.lookup_mean_us", "us"},
	{"txn.commits", "count"}, {"txn.aborts", "count"},
	{"txn.commit_mean_us", "us"}, {"txn.group_wait_mean_us", "us"},
	{"slb.record_write_mean_us", "us"}, {"slb.records_per_txn", "ratio"},
	{"slb.epoch_chains_mean", "count"},
	{"log.records_sorted", "count"}, {"log.bytes_sorted", "bytes"},
	{"log.pages_flushed", "count"}, {"log.page_flush_mean_us", "us"},
	{"log.drain_ms", "ms"}, {"log.max_bin_pages", "count"},
	{"checkpoint.completed", "count"}, {"checkpoint.busy_ms", "ms"},
	{"checkpoint.image_bytes", "bytes"}, {"checkpoint.failed", "count"},
	{"checkpoint.stuck_bins", "count"},
	{"restart.root_scan_us", "us"}, {"restart.catalog_load_us", "us"},
	{"restart.partition_recovery_mean_us", "us"}, {"restart.partition_recovery_max_us", "us"},
	{"restart.partitions_recovered", "count"}, {"restart.log_pages_read", "count"},
	{"restart.sweep_worker_max_ms", "ms"}, {"restart.images_quarantined", "count"},
	{"archive.rebuilds", "count"}, {"archive.pages_archived", "count"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"}, {"proc.cpu_ms", "ms"},
	{"self.bench_ms", "ms"}, {"self.gen_ms", "ms"}, {"self.client_ms", "ms"},
	{"self.mmdb_ms", "ms"}, {"self.ttree_ms", "ms"}, {"self.linhash_ms", "ms"},
	{"self.recover_ms", "ms"},
	{"budget.txn_remainder_us", "us"},
	{"budget.first_commit_remainder_us", "us"},
	{"trace.spans", "count"}, {"trace.span_cost_ns", "ns"},
	{"trace.txn_p50_ms", "ms"}, {"trace.ops_per_s", "1/s"},
	{"trace.txn_p75_ms", "ms"}, {"trace.read_p75_ms", "ms"},
}

// result is what a workload run produces.
type result struct {
	attempted, failed int64
	gate              error // nil when every correctness check passed
	e2e               map[string]float64
	layer             map[string]float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// env is one run's parameters.
type env struct {
	seconds float64
	rng     *rand.Rand
	rec     *Recorder // nil unless traced
	out     string    // directory for trace files
}

var workloads = map[string]func(*env) (*result, error){
	"tpcb":    runTPCB,
	"ingest":  runIngest,
	"restart": runRestart,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: tpcb, ingest or restart")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		traced   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		out      = flag.String("out", ".bench_build/perfbench", "directory for trace output")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", *workload)
		os.Exit(2)
	}
	e := &env{seconds: *seconds, rng: rand.New(rand.NewSource(*seed)), out: *out}
	if *traced != 0 {
		e.rec = newRecorder(traceEvery)
	}
	res, err := run(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.e2e["peak_rss_mb"] = peakRSSMiB()
	defs := endToEnd
	vals := res.e2e
	if e.rec != nil {
		if err := traceReport(e, *workload, res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		defs, vals = perLayer, res.layer
	}
	report(*workload, res, defs, vals)
	if res.gate != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", res.gate)
		os.Exit(1)
	}
}

// report writes the metric table and, as the last line, the JSON result.
func report(workload string, res *result, defs []metricDef, vals map[string]float64) {
	fmt.Printf("perfbench %s: attempted %d, failed %d, correct %v\n",
		workload, res.attempted, res.failed, res.gate == nil)
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]mv, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		fmt.Printf("  %-36s %14.4f %s\n", d.name, v, d.unit)
		m[d.name] = mv{v, d.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.gate == nil, "attempted": res.attempted,
		"failed": res.failed, "metrics": m,
	})
	fmt.Println(string(line))
}

// traceReport writes the spans as a Chrome trace and derives the
// per-layer self times and the span-recorder cost.
func traceReport(e *env, workload string, res *result) error {
	spans := e.rec.recorded()
	for layer, ns := range selfByLayer(spans) {
		res.layer["self."+layer+"_ms"] = float64(ns) / 1e6
	}
	res.layer["trace.spans"] = float64(len(spans))
	res.layer["trace.span_cost_ns"] = spanCost()
	res.layer["trace.txn_p50_ms"] = res.e2e["txn_p50_ms"]
	res.layer["trace.ops_per_s"] = res.e2e["ops_per_s"]
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(e.out, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		_ = f.Close()
		return err
	}
	fmt.Printf("perfbench: %d spans written to %s\n", len(spans), path)
	return f.Close()
}

// spanCost measures what recording one span costs, the tracing
// overhead each traced call pays.
func spanCost() float64 {
	r := newRecorder(1)
	const n = 100000
	start := time.Now()
	for i := 0; i < n; i++ {
		r.since("bench.cost", 0, 1, r.now())
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// dbConfig is mmdbserve's default configuration: DefaultConfig, a
// background sweep over 4 recovery workers, a 16 KiB heat snapshot and
// an empty fault plan (so a crash halts the simulated machine sharply).
func dbConfig() mmdb.Config {
	cfg := mmdb.DefaultConfig()
	cfg.BackgroundRecovery = true
	cfg.RecoveryWorkers = 4
	cfg.HeatSnapshotBytes = 16 << 10
	cfg.FaultInjector = fault.NewInjector(fault.Plan{})
	return cfg
}

// serverWorkers is mmdbserve's default executor count.
const serverWorkers = 8

// cpuNow returns the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's high-water resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// collectSession runs the collector after a session's database is
// closed, so the next session's heap, and with it the run's peak RSS,
// does not depend on when the collector last ran.
func collectSession() { runtime.GC() }

// gcState samples the Go runtime's collection counters.
type gcState struct {
	cycles  uint32
	pauseNS uint64
}

func gcNow() gcState {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcState{ms.NumGC, ms.PauseTotalNs}
}

// window measures the process-level cost of a measured phase.
type window struct {
	start time.Time
	cpu   time.Duration
	gc    gcState
}

func openWindow() window { return window{time.Now(), cpuNow(), gcNow()} }

// close fills the phase's process and runtime layer metrics and
// returns its wall time.
func (w window) close(res *result) time.Duration {
	wall := time.Since(w.start)
	gc := gcNow()
	res.layer["proc.cpu_ms"] = float64((cpuNow() - w.cpu).Microseconds()) / 1e3
	res.layer["runtime.gc_cycles"] = float64(gc.cycles - w.gc.cycles)
	res.layer["runtime.gc_pause_ms"] = float64(gc.pauseNS-w.gc.pauseNS) / 1e6
	return wall
}

// unit is one slice of a run's measured work (a session's load window,
// a load or a cycle): its successful operations, wall time and process
// CPU time.
type unit struct {
	ok        int64
	wall, cpu time.Duration
}

// reportUnits reports throughput and CPU per successful operation as
// medians over the run's units, so a slowdown the machine imposes on
// one unit does not move them.
func reportUnits(res *result, units []unit) {
	var rates, cpus []float64
	for _, u := range units {
		rates = append(rates, perOp(float64(u.ok), u.wall.Nanoseconds())*1e9)
		cpus = append(cpus, perOp(float64(u.cpu.Nanoseconds())/1e3, u.ok))
	}
	res.e2e["ops_per_s"] = median(rates)
	res.e2e["cpu_us_per_op"] = median(cpus)
}

// ms converts nanoseconds to milliseconds.
func ms(ns float64) float64 { return ns / 1e6 }

// groups collects latency samples by the run's units (sessions, loads
// or cycles).
type groups [][]sample

// next starts the samples of a new unit.
func (g *groups) next() { *g = append(*g, nil) }

// add records a sample of the current unit.
func (g groups) add(s sample) { g[len(g)-1] = append(g[len(g)-1], s) }

// latencies reports the median over the run's units of each unit's p50
// as name_p50_ms, so a slowdown the machine imposes on a few units does
// not move it, and the same median of the units' p75 as the per-layer
// trace.name_p75_ms. A failure ranks as its unit's slowest sample, so
// it can raise a unit's percentile and, through the median, the
// reported one, but never lower them.
//
// The p75 is no end-to-end metric because tpcb's is not steady: over
// loopback TCP on a shared 2-core machine it follows how fast the host
// runs the process and how late it wakes it, and in sets of ten runs of
// one code the quartile distance of tpcb's debit/credit p75 was 23-26%
// of its median (ingest's and restart's 4-5%). The p75 of all a run's
// samples at once, rather than the median over sessions, spread as
// much; higher percentiles spread more.
func latencies(res *result, name string, g groups) {
	var p50s, p75s []float64
	for _, u := range g {
		if len(u) == 0 {
			continue
		}
		p := percentiles(u, 0.50, 0.75)
		p50s = append(p50s, p[0])
		p75s = append(p75s, p[1])
	}
	res.e2e[name+"_p50_ms"] = ms(median(p50s))
	res.layer["trace."+name+"_p75_ms"] = ms(median(p75s))
}

// setupMedian reports the median of the set-up times.
func setupMedian(res *result, times []time.Duration) {
	xs := make([]float64, len(times))
	for i, t := range times {
		xs[i] = t.Seconds()
	}
	res.e2e["setup_s"] = median(xs)
}

// sortedKeys returns a map's keys in order.
func sortedKeys(m map[int64]int64) []int64 {
	ks := make([]int64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}
