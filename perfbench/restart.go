package main

import (
	"fmt"
	"math/rand"
	"time"

	"mmdb"
	"mmdb/internal/workload"
)

// restart loads restartRels relations whose padded rows span a few
// hundred partitions, and churns zipf-skewed updates over them so hot
// partitions carry REDO bins and checkpoint images. The timed part then
// repeats one cycle: a fixed burst of skewed updates (no inserts, so
// every cycle restarts a database of the same size), crash, Recover,
// the first transaction on the hottest row, the waits for ttp99 and the
// end of the sweep, and a comparison of every row against an oracle.
const (
	restartRels     = 4
	restartRows     = 2048 // per relation
	restartPad      = 1500 // bytes of padding per row
	restartLoadTx   = 16   // rows per load transaction
	restartChurn    = 8000 // updates of the set-up churn
	restartBurst    = 1000 // updates per cycle
	restartReads    = 256  // timed point reads per cycle
	restartZipfS    = 1.1
	restartSessions = 5 // each on a freshly set-up database
	// restartUserBytes is the value bytes one update writes.
	restartUserBytes = 8
)

var restartSchema = mmdb.Schema{
	{Name: "id", Type: mmdb.Int64},
	{Name: "val", Type: mmdb.Int64},
	{Name: "pad", Type: mmdb.String},
}

// restartDB is the database under test and the oracle of every row's
// last committed value.
type restartDB struct {
	db     *mmdb.DB
	rels   [restartRels]*mmdb.Relation
	pks    [restartRels]*mmdb.Index
	oracle [restartRels][]int64
	keys   workload.Zipf
	next   int64 // next value an update writes
}

// rowOf maps a global zipf key to (relation, row): consecutive keys
// land in different relations, so every relation has a hot head.
func rowOf(k int64) (int, int64) { return int(k % restartRels), k / restartRels }

func (r *restartDB) attach(db *mmdb.DB) error {
	r.db = db
	for i := range r.rels {
		rel, err := db.GetRelation(fmt.Sprintf("r%d", i))
		if err != nil {
			return err
		}
		r.rels[i], r.pks[i] = rel, rel.Index("pk")
		if r.pks[i] == nil {
			return fmt.Errorf("relation r%d lost its pk index", i)
		}
	}
	return nil
}

// setupRestart builds and churns a database.
func setupRestart(rng *rand.Rand) (*restartDB, error) {
	db, err := mmdb.Open(dbConfig())
	if err != nil {
		return nil, err
	}
	r := &restartDB{keys: workload.NewZipf(rng, restartZipfS, restartRels*restartRows)}
	pad := string(make([]byte, restartPad))
	for i := range r.rels {
		rel, err := db.CreateRelation(fmt.Sprintf("r%d", i), restartSchema)
		if err != nil {
			return nil, err
		}
		if _, err := db.CreateIndex(rel, "pk", "id", mmdb.KindLinHash, 16); err != nil {
			return nil, err
		}
		r.oracle[i] = make([]int64, restartRows)
		for row := int64(0); row < restartRows; row += restartLoadTx {
			tx := db.Begin()
			for j := row; j < row+restartLoadTx; j++ {
				if _, err := tx.Insert(rel, mmdb.Tuple{j, int64(0), pad}); err != nil {
					_ = tx.Abort()
					return nil, fmt.Errorf("load r%d row %d: %w", i, j, err)
				}
			}
			if err := tx.Commit(); err != nil {
				return nil, err
			}
		}
	}
	if err := r.attach(db); err != nil {
		return nil, err
	}
	for i := 0; i < restartChurn; i++ {
		if err := r.update(nil, 0); err != nil {
			return nil, fmt.Errorf("churn: %w", err)
		}
	}
	db.WaitIdle()
	return r, nil
}

// update writes the next value into a zipf-chosen row in its own
// transaction and records it in the oracle once committed.
func (r *restartDB) update(rec *Recorder, req uint64) error {
	rel, row := rowOf(r.keys.Next())
	return r.set(rec, req, rel, row)
}

func (r *restartDB) set(rec *Recorder, req uint64, rel int, row int64) error {
	r.next++
	if err := updateVal(rec, r.db, r.pks[rel], r.rels[rel], req, row, "val", r.next); err != nil {
		return err
	}
	r.oracle[rel][row] = r.next
	return nil
}

// verify compares every row with the oracle and runs the database's
// consistency check.
func (r *restartDB) verify() error {
	for i, rel := range r.rels {
		seen := 0
		var bad error
		tx := r.db.Begin()
		err := tx.Scan(rel, func(_ mmdb.RowID, t mmdb.Tuple) bool {
			id, _ := t[0].(int64)
			val, _ := t[1].(int64)
			seen++
			switch {
			case id < 0 || id >= restartRows:
				bad = fmt.Errorf("r%d: unexpected row id %d", i, id)
			case val != r.oracle[i][id]:
				bad = fmt.Errorf("r%d row %d: val %d, oracle %d", i, id, val, r.oracle[i][id])
			}
			return bad == nil
		})
		if cerr := tx.Commit(); err == nil {
			err = cerr
		}
		if err == nil {
			err = bad
		}
		if err == nil && seen != restartRows {
			err = fmt.Errorf("r%d holds %d rows, want %d", i, seen, restartRows)
		}
		if err != nil {
			return err
		}
	}
	return r.db.CheckConsistency()
}

func runRestart(e *env) (*result, error) {
	res := newResult()
	tot := newTotals()
	var (
		setups          []time.Duration
		txnLat, readLat groups
		bins            []binState
		rs              restartSamples
		units           []unit
		updates         int64
		cycles          int
	)
	win := openWindow()
	for s := 0; s < restartSessions; s++ {
		start := time.Now()
		r, err := setupRestart(e.rng)
		if err != nil {
			return nil, fmt.Errorf("restart setup: %w", err)
		}
		setups = append(setups, time.Since(start))
		if s == 0 {
			fmt.Printf("perfbench restart: %d partitions resident after set-up\n", len(r.db.Manager().Store().ResidentIDs()))
		}
		deadline := time.Now().Add(time.Duration(e.seconds / restartSessions * float64(time.Second)))
		before := r.db.Metrics()
		for c := 0; c == 0 || time.Now().Before(deadline); c++ {
			start, cpu0 := time.Now(), cpuNow()
			var ok int64
			txnLat.next()
			readLat.next()
			for i := 0; i < restartBurst; i++ {
				req := e.rec.req()
				t0, ts := e.rec.now(), time.Now()
				err := r.update(e.rec, req)
				txnLat.add(sample{time.Since(ts).Nanoseconds(), err == nil})
				e.rec.add(Span{ID: req, Req: req, Name: "bench.txn", Start: t0, End: e.rec.now()})
				res.attempted++
				if err != nil {
					res.failed++
					continue
				}
				ok++
				updates++
			}
			bins = append(bins, drainBins(r.db))
			tot.add(delta{before: before, after: r.db.Metrics()})

			db2, rt, err := crashRecover(e.rec, r.db, e.rec.id(), func(db *mmdb.DB, parent uint64) error {
				if err := r.attach(db); err != nil {
					return err
				}
				rel, row := rowOf(0)
				return r.set(e.rec, parent, rel, row)
			})
			res.attempted++
			if err != nil {
				return nil, err
			}
			ok++
			updates++
			rs.add(rt)
			before = mmdb.MetricsSnapshot{}

			for i := 0; i < restartReads; i++ {
				rel, row := rowOf(r.keys.Next())
				req := e.rec.req()
				t0, ts := e.rec.now(), time.Now()
				t := begin(e.rec, db2, req, req)
				_, tup, found, err := t.lookup(r.pks[rel], row)
				err = t.finish(err)
				readLat.add(sample{time.Since(ts).Nanoseconds(), err == nil})
				e.rec.add(Span{ID: req, Req: req, Name: "bench.read", Start: t0, End: e.rec.now()})
				res.attempted++
				if err != nil {
					res.failed++
					continue
				}
				ok++
				if !found || tup[1] != r.oracle[rel][row] {
					res.gate = fmt.Errorf("read r%d row %d after recovery: found %v, %v, oracle %d", rel, row, found, tup, r.oracle[rel][row])
				}
			}
			units = append(units, unit{ok, time.Since(start), cpuNow() - cpu0})
			if err := r.verify(); err != nil && res.gate == nil {
				res.gate = fmt.Errorf("session %d cycle %d: %w", s, c, err)
			}
			cycles++
		}
		tot.add(delta{before: before, after: r.db.Metrics()})
		if err := r.db.Close(); err != nil {
			return nil, err
		}
		collectSession()
	}
	wall := win.close(res)
	fmt.Printf("perfbench restart: %d cycles in %d sessions, %.2fs\n", cycles, restartSessions, wall.Seconds())
	setupMedian(res, setups)
	latencies(res, "txn", txnLat)
	latencies(res, "read", readLat)
	reportUnits(res, units)
	res.e2e["ok_ratio"] = okRatio(res.attempted, res.failed)
	rs.report(res)
	fillLayers(res, tot, updates*restartUserBytes, bins)
	layerSpans(res, e.rec)
	return res, nil
}
