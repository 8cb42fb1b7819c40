package main

import (
	"fmt"
	"time"

	"mmdb"
)

// ingest grows one relation from empty to ingestRows rows in
// ingestBatch-row insert transactions, from one closed-loop client in
// the process, then reads a sample back through its T-tree and its
// linear-hash index. The row count is fixed, so the result is inserts
// per second at a stated size; the load repeats on a fresh database
// until the run's time is used.
const (
	ingestRows   = 8192
	ingestBatch  = 4
	ingestSample = 1024
	// ingestCrashes is the crash/recover cycles run on each loaded
	// database.
	ingestCrashes = 24
	// ingestUserBytes is the value bytes of one row: id and val (8
	// bytes each) plus the 24-byte name.
	ingestUserBytes = 8 + 8 + 24
)

var ingestSchema = mmdb.Schema{
	{Name: "id", Type: mmdb.Int64},
	{Name: "val", Type: mmdb.Float64},
	{Name: "name", Type: mmdb.String},
}

// ingestDB is one freshly set-up ingest database.
type ingestDB struct {
	db     *mmdb.DB
	rel    *mmdb.Relation
	tt, lh *mmdb.Index
}

func openIngest() (*ingestDB, error) {
	db, err := mmdb.Open(dbConfig())
	if err != nil {
		return nil, err
	}
	d := &ingestDB{db: db}
	if d.rel, err = db.CreateRelation("items", ingestSchema); err != nil {
		return nil, err
	}
	if d.tt, err = db.CreateIndex(d.rel, "tt", "id", mmdb.KindTTree, 0); err != nil {
		return nil, err
	}
	if d.lh, err = db.CreateIndex(d.rel, "lh", "id", mmdb.KindLinHash, 16); err != nil {
		return nil, err
	}
	return d, nil
}

// reattach refreshes the handles after a recovery replaced the DB.
func (d *ingestDB) reattach(db *mmdb.DB) error {
	d.db = db
	var err error
	if d.rel, err = db.GetRelation("items"); err != nil {
		return err
	}
	d.tt, d.lh = d.rel.Index("tt"), d.rel.Index("lh")
	if d.tt == nil || d.lh == nil {
		return fmt.Errorf("ingest indexes missing after recovery")
	}
	return nil
}

func rowName(key int64) string { return fmt.Sprintf("item-%019d", key) }

func rowVal(key int64) float64 { return float64(key) * 0.5 }

func runIngest(e *env) (*result, error) {
	res := newResult()
	tot := newTotals()
	var (
		setups              []time.Duration
		txnLat, readLat     groups
		units               []unit
		rows, okRows, reads int64
		firsts              int64 // first transactions after a crash
		bins                []binState
		rs                  restartSamples
	)
	win := openWindow()
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for load := 0; load == 0 || time.Now().Before(deadline); load++ {
		start := time.Now()
		d, err := openIngest()
		if err != nil {
			return nil, fmt.Errorf("ingest setup: %w", err)
		}
		setups = append(setups, time.Since(start))
		before := d.db.Metrics()
		keys := e.rng.Perm(ingestRows)
		committed := map[int64]bool{}
		rowsBefore := okRows

		txnLat.next()
		readLat.next()
		// Load: the keys in a seeded random order, ingestBatch per txn.
		start, cpu0 := time.Now(), cpuNow()
		for i := 0; i < len(keys); i += ingestBatch {
			batch := keys[i:min(i+ingestBatch, len(keys))]
			req := e.rec.req()
			t0, ts := e.rec.now(), time.Now()
			t := begin(e.rec, d.db, req, req)
			var err error
			for _, k := range batch {
				key := int64(k)
				if _, err = t.insert(d.rel, mmdb.Tuple{key, rowVal(key), rowName(key)}); err != nil {
					break
				}
			}
			err = t.finish(err)
			txnLat.add(sample{time.Since(ts).Nanoseconds(), err == nil})
			e.rec.add(Span{ID: req, Req: req, Name: "bench.txn", Start: t0, End: e.rec.now()})
			rows += int64(len(batch))
			if err != nil {
				res.failed += int64(len(batch))
				continue
			}
			okRows += int64(len(batch))
			for _, k := range batch {
				committed[int64(k)] = true
			}
		}
		units = append(units, unit{okRows - rowsBefore, time.Since(start), cpuNow() - cpu0})
		bins = append(bins, drainBins(d.db))

		// Read a sample back through both indexes, one read txn each.
		if err := readBack(e, d, keys, committed, res, readLat, &reads); err != nil {
			res.gate = err
		}
		if err := checkIngest(d, committed); err != nil && res.gate == nil {
			res.gate = err
		}

		// Crash the loaded database ingestCrashes times. The first
		// transaction after each crash updates one of the last rows
		// inserted, whose partition is the hottest, and a different one
		// after each crash: the time depends on where the key's
		// linear-hash bucket lies, and with one key per load the loads'
		// median first commits fell into two groups, 1.3 and 3 ms.
		tot.add(delta{before: before, after: d.db.Metrics()})
		for c := 0; c < ingestCrashes; c++ {
			key := int64(keys[len(keys)-1-c])
			db2, rt, err := crashRecover(e.rec, d.db, e.rec.id(), func(db *mmdb.DB, parent uint64) error {
				if err := d.reattach(db); err != nil {
					return err
				}
				return updateVal(e.rec, db, d.lh, d.rel, parent, key, "val", rowVal(key))
			})
			firsts++
			if err != nil {
				return nil, err
			}
			rs.add(rt)
			tot.add(delta{after: db2.Metrics()})
		}
		if err := checkIngest(d, committed); err != nil && res.gate == nil {
			res.gate = fmt.Errorf("after recovery: %w", err)
		}
		if err := d.db.Close(); err != nil {
			return nil, err
		}
		collectSession()
	}
	win.close(res)
	res.attempted = rows + reads + firsts
	setupMedian(res, setups)
	latencies(res, "txn", txnLat)
	latencies(res, "read", readLat)
	reportUnits(res, units)
	res.e2e["ok_ratio"] = okRatio(res.attempted, res.failed)
	rs.report(res)
	fillLayers(res, tot, okRows*ingestUserBytes, bins)
	layerSpans(res, e.rec)
	return res, nil
}

// readBack looks up ingestSample keys through the T-tree and then the
// linear-hash index; a committed key must be found with its value. A
// read that fails counts as a failed operation and fails the gate.
func readBack(e *env, d *ingestDB, keys []int, committed map[int64]bool, res *result, lat groups, reads *int64) error {
	var gate error
	for i := 0; i < ingestSample && i < len(keys); i++ {
		key := int64(keys[e.rng.Intn(len(keys))])
		for _, idx := range []*mmdb.Index{d.tt, d.lh} {
			req := e.rec.req()
			t0, ts := e.rec.now(), time.Now()
			t := begin(e.rec, d.db, req, req)
			_, tup, found, err := t.lookup(idx, key)
			err = t.finish(err)
			lat.add(sample{time.Since(ts).Nanoseconds(), err == nil})
			e.rec.add(Span{ID: req, Req: req, Name: "bench.read", Start: t0, End: e.rec.now()})
			*reads++
			switch {
			case err != nil:
				res.failed++
				gate = fmt.Errorf("read key %d via %s: %w", key, idx.Name(), err)
			case found != committed[key]:
				gate = fmt.Errorf("key %d via %s: found %v, committed %v", key, idx.Name(), found, committed[key])
			case found && tup[1] != rowVal(key):
				gate = fmt.Errorf("key %d via %s: val %v", key, idx.Name(), tup[1])
			}
		}
	}
	return gate
}

// checkIngest verifies the row count and the database's own
// consistency check (tuples decode, indexes match their relation).
func checkIngest(d *ingestDB, committed map[int64]bool) error {
	tx := d.db.Begin()
	n, err := tx.Count(d.rel)
	if cerr := tx.Commit(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if n != len(committed) {
		return fmt.Errorf("row count %d, committed %d", n, len(committed))
	}
	return d.db.CheckConsistency()
}

// updateVal is one read-modify-write transaction: look key up through
// idx and set column col to v.
func updateVal(rec *Recorder, db *mmdb.DB, idx *mmdb.Index, rel *mmdb.Relation, parent uint64, key int64, col string, v any) error {
	t := begin(rec, db, parent, parent)
	id, _, found, err := t.lookup(idx, key)
	if err == nil && !found {
		err = fmt.Errorf("key %d not found", key)
	}
	if err == nil {
		err = t.update(rel, id, map[string]any{col: v})
	}
	return t.finish(err)
}
