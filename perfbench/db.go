package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"mmdb"
)

// txn wraps one transaction's calls into the mmdb facade, recording a
// span around each (mmdb.begin, mmdb.insert, mmdb.update, mmdb.commit,
// and ttree.lookup or linhash.lookup by index kind).
type txn struct {
	rec         *Recorder
	tx          *mmdb.Txn
	parent, req uint64
}

func begin(rec *Recorder, db *mmdb.DB, parent, req uint64) *txn {
	t0 := rec.now()
	t := &txn{rec: rec, tx: db.Begin(), parent: parent, req: req}
	rec.since("mmdb.begin", parent, req, t0)
	return t
}

func (t *txn) insert(rel *mmdb.Relation, tup mmdb.Tuple) (mmdb.RowID, error) {
	t0 := t.rec.now()
	id, err := t.tx.Insert(rel, tup)
	t.rec.since("mmdb.insert", t.parent, t.req, t0)
	return id, err
}

func (t *txn) update(rel *mmdb.Relation, id mmdb.RowID, changes map[string]any) error {
	t0 := t.rec.now()
	err := t.tx.Update(rel, id, changes)
	t.rec.since("mmdb.update", t.parent, t.req, t0)
	return err
}

// lookup returns the one row idx holds for key; found is false when
// there is none.
func (t *txn) lookup(idx *mmdb.Index, key any) (id mmdb.RowID, tup mmdb.Tuple, found bool, err error) {
	t0 := t.rec.now()
	err = t.tx.IndexLookup(idx, key, func(i mmdb.RowID, tp mmdb.Tuple) bool {
		id, tup, found = i, tp, true
		return false
	})
	name := "linhash.lookup"
	if idx.Kind() == mmdb.KindTTree {
		name = "ttree.lookup"
	}
	t.rec.since(name, t.parent, t.req, t0)
	return id, tup, found, err
}

func (t *txn) commit() error {
	t0 := t.rec.now()
	err := t.tx.Commit()
	t.rec.since("mmdb.commit", t.parent, t.req, t0)
	return err
}

// finish commits when err is nil and aborts otherwise, returning the
// first error.
func (t *txn) finish(err error) error {
	if err == nil {
		return t.commit()
	}
	_ = t.tx.Abort() // the transaction already failed; err is what matters
	return err
}

// binState is the recovery component's backlog once it has gone idle:
// the largest partition bin (the worst single-partition recovery log)
// and the bins left checkpoint-pending with no request queued (the lost
// checkpoint re-trigger: such a bin is never checkpointed again).
type binState struct {
	drain       time.Duration
	maxBinPages int
	stuckBins   int
}

// drainBins waits until the sorter and checkpointer are idle and reads
// the bins. After WaitIdle no checkpoint request is outstanding, so any
// bin still pending has nothing queued.
func drainBins(db *mmdb.DB) binState {
	start := time.Now()
	db.WaitIdle()
	s := binState{drain: time.Since(start)}
	for _, b := range db.Manager().BinStates() {
		s.maxBinPages = max(s.maxBinPages, len(b.Pages))
		if b.CkptPending {
			s.stuckBins++
		}
	}
	return s
}

// settle waits until db's background sweep has ended and its recovery
// component is idle.
func settle(db *mmdb.DB) {
	for !db.RecoveryProgress(0).SweepDone {
		time.Sleep(time.Millisecond)
	}
	db.WaitIdle()
}

// fillLayers maps instrument deltas summed over a run onto the
// per-layer metrics, and derives write amplification from the bytes
// the log disks (both spindles) and checkpoint images absorbed.
func fillLayers(res *result, t *totals, userBytes int64, bins []binState) {
	l := res.layer
	l["lock.waits"] = float64(t.count("lock/wait"))
	l["lock.wait_ms"] = float64(t.sum("lock/wait")) / 1e6
	l["lock.deadlocks"] = float64(t.counter("lock/deadlocks"))
	commits := t.counter("txn/commits")
	l["txn.commits"] = float64(commits)
	l["txn.aborts"] = float64(t.counter("txn/aborts"))
	l["txn.commit_mean_us"] = t.mean("txn/commit_latency") / 1e3
	l["txn.group_wait_mean_us"] = t.mean("txn/group_commit_wait") / 1e3
	l["slb.record_write_mean_us"] = t.mean("slb/record_write") / 1e3
	l["slb.records_per_txn"] = perOp(float64(t.count("slb/record_write")), commits)
	l["slb.epoch_chains_mean"] = t.mean("slb/epoch_chains")
	l["log.records_sorted"] = float64(t.counter("log/records_sorted"))
	l["log.bytes_sorted"] = float64(t.counter("log/bytes_sorted"))
	pages := t.counter("log/pages_flushed")
	l["log.pages_flushed"] = float64(pages)
	l["log.page_flush_mean_us"] = t.mean("log/page_flush") / 1e3
	l["checkpoint.completed"] = float64(t.counter("checkpoint/completed"))
	l["checkpoint.busy_ms"] = float64(t.sum("checkpoint/duration")) / 1e6
	l["checkpoint.image_bytes"] = float64(t.sum("checkpoint/image_bytes"))
	l["checkpoint.failed"] = float64(t.counter("checkpoint/failed"))
	l["restart.partition_recovery_mean_us"] = t.mean("restart/partition_recovery") / 1e3
	l["restart.partition_recovery_max_us"] = float64(t.max("restart/partition_recovery")) / 1e3
	l["restart.partitions_recovered"] = float64(t.counter("restart/partitions_recovered"))
	l["restart.log_pages_read"] = float64(t.counter("restart/log_pages_read"))
	l["restart.sweep_worker_max_ms"] = float64(t.max("restart/sweep_worker")) / 1e6
	l["restart.images_quarantined"] = float64(t.counter("restart/images_quarantined"))
	l["archive.rebuilds"] = float64(t.counter("archive/rebuilds"))
	l["archive.pages_archived"] = float64(t.counter("log/pages_archived"))

	var drains []float64
	for _, b := range bins {
		drains = append(drains, float64(b.drain.Nanoseconds()))
		l["log.max_bin_pages"] = max(l["log.max_bin_pages"], float64(b.maxBinPages))
		l["checkpoint.stuck_bins"] = max(l["checkpoint.stuck_bins"], float64(b.stuckBins))
	}
	l["log.drain_ms"] = ms(median(drains))

	pageSize := int64(dbConfig().LogPageSize)
	written := 2*pages*pageSize + t.sum("checkpoint/image_bytes")
	res.e2e["write_amp"] = perOp(float64(written), userBytes)
}

// restartTimes is one crash/recover cycle as the benchmark times it.
type restartTimes struct {
	open, firstCommit, ttp99, sweep time.Duration
	rootScan                        time.Duration // inside open
}

// rootScan reads the root-scan time of a freshly recovered database:
// its registry is new, so the one observation is this restart's.
func rootScan(db *mmdb.DB) time.Duration {
	return time.Duration(histOf(db.Metrics(), "restart", "root_scan").Sum)
}

// restartSamples collects restart cycles. The end-to-end restart times
// are interquartile means over the run's crashes (the mean of the middle
// half, restartTrim): the first commit after a crash falls into two
// modes, a fast one and one about as long as the sweep, and the
// interquartile mean, like the median, follows the fast mode while the
// slow one holds a minority, but moves smoothly rather than jumping
// when the weights shift. A tenth trimmed from each end instead spread
// the first commit 0.20 across runs of one code, the interquartile mean
// 0.12.
type restartSamples struct {
	open, firstCommit, ttp99, sweep, rootScan, catalogLoad []float64
}

// restartTrim is the share of restart samples dropped at each end.
const restartTrim = 0.25

func (s *restartSamples) add(t restartTimes) {
	s.open = append(s.open, float64(t.open))
	s.firstCommit = append(s.firstCommit, float64(t.firstCommit))
	s.ttp99 = append(s.ttp99, float64(t.ttp99))
	s.sweep = append(s.sweep, float64(t.sweep))
	s.rootScan = append(s.rootScan, float64(t.rootScan))
	// The root scan is timed inside Recover; the rest of Recover is
	// catalog decoding and start-up, so the two add up to the open time
	// by definition.
	s.catalogLoad = append(s.catalogLoad, remainder(float64(t.open), float64(t.rootScan)))
}

func (s *restartSamples) report(res *result) {
	res.e2e["restart_open_ms"] = ms(trimmedMean(s.open, restartTrim))
	res.e2e["first_commit_ms"] = ms(trimmedMean(s.firstCommit, restartTrim))
	res.e2e["ttp99_ms"] = ms(trimmedMean(s.ttp99, restartTrim))
	res.e2e["sweep_ms"] = ms(trimmedMean(s.sweep, restartTrim))
	res.layer["restart.root_scan_us"] = median(s.rootScan) / 1e3
	res.layer["restart.catalog_load_us"] = median(s.catalogLoad) / 1e3
}

// errNoHeat marks a recovery whose sweep ended without stamping ttp99:
// no pre-crash heat ranking survived the crash.
var errNoHeat = errors.New("recovery finished without a time-to-p99-restored stamp")

// crashRecover crashes db, recovers it from the surviving hardware,
// runs first (the first transaction, on the hottest pre-crash row) and
// waits for ttp99 and then the end of the background sweep.
func crashRecover(rec *Recorder, db *mmdb.DB, req uint64, first func(db *mmdb.DB, parent uint64) error) (*mmdb.DB, restartTimes, error) {
	var rt restartTimes
	cfg := db.Manager().Config()
	// A real restart begins in a fresh process with an empty heap;
	// collecting first keeps the run's garbage so far from being
	// collected inside the timed recovery.
	runtime.GC()
	t0 := rec.now()
	hw := db.Crash()
	rec.since("recover.crash", 0, req, t0)
	cfg.FaultInjector.ClearCrash() // power the simulated machine back on

	parent := rec.id()
	start := time.Now()
	t1 := rec.now()
	db2, err := mmdb.Recover(hw, cfg)
	rt.open = time.Since(start)
	rec.since("recover.open", parent, req, t1)
	if err != nil {
		return nil, rt, fmt.Errorf("recover: %w", err)
	}
	rt.rootScan = rootScan(db2)
	if err := first(db2, parent); err != nil {
		return db2, rt, fmt.Errorf("first transaction after recovery: %w", err)
	}
	rt.firstCommit = time.Since(start)
	rec.add(Span{ID: parent, Req: req, Name: "bench.first_commit", Start: t1, End: rec.now()})

	t2 := rec.now()
	for {
		p := db2.RecoveryProgress(0)
		if p.SweepDone {
			rt.sweep = time.Since(start)
			rt.ttp99 = time.Duration(p.TTP99RestoredNS)
			break
		}
		// In nanosleep: the Go timer would round a 50 µs poll up to
		// about a millisecond (see sleepUntil).
		sleepUntil(time.Now().Add(50 * time.Microsecond))
	}
	rec.since("recover.sweep", 0, req, t2)
	if rt.ttp99 <= 0 {
		return db2, rt, errNoHeat
	}
	return db2, rt, nil
}
