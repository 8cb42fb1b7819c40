package main

import (
	"errors"
	"fmt"
	"sync"
	"syscall"
	"time"

	"mmdb"
	"mmdb/internal/server"
	"mmdb/internal/server/client"
	"mmdb/internal/server/proto"
	"mmdb/internal/workload"
)

// tpcb offers Gray debit/credit transactions plus read-only balance
// lookups on the accounts' linear-hash pk index, over loopback TCP to
// an in-process server, on a fixed open-loop schedule: Poisson arrivals
// at tpcbRate per second from one process over tpcbConns pipelined
// connections (the machine's core count). The rate sits below capacity
// for the whole run even as the history relation grows; at 800/s the
// last sessions of a run on a slow host came near it (debit/credit
// medians of 1-6 ms), and the run's debit/credit median spread 16-23%
// between runs of one code, against 7% at 600/s. The lookup share is
// TPC-C's read-only share: Order-Status and Stock-Level, 4% each in its
// minimum mix.
const (
	tpcbRate       = 600.0
	tpcbLookupPct  = 8
	tpcbConns      = 2
	tpcbAccounts   = 1000
	tpcbTellers    = 100
	tpcbBranches   = 10
	tpcbZipfS      = 1.2
	tpcbSessions   = 48  // load windows on the run's one database
	tpcbCrashes    = 4   // in process after each session
	tpcbBurst      = 250 // account credits before each crash
	tpcbBehindMS   = 5.0 // generator lateness p99 above this flags the run
	tpcbUserBytes  = 64  // per debit/credit: 3 balance updates, seq, 4-column history row
	creditBytes    = 16  // per account credit: balance and seq
	tpcbQueueDepth = 1024
	tpcbSetups     = 9 // timed set-ups; the run uses the last
)

// tpcbOp is one scheduled request.
type tpcbOp struct {
	at     time.Duration
	lookup bool
	acct   int64
	teller int64
	branch int64
}

// outcome is one request's result as the aggregator sees it.
type outcome struct {
	op     tpcbOp
	late   time.Duration // actual send − scheduled send
	lat    time.Duration // response − scheduled send
	rtt    time.Duration // response − actual send
	status proto.Status
	tErr   bool   // transport error: outcome unknown
	seq    uint64 // the account's stored seq after a debit/credit
}

// ackLog is the client's record of acknowledged debit/credits: each
// adds +1 to its account, so a durable balance counts its commits.
type ackLog struct {
	count  map[int64]int64
	maxSeq map[int64]uint64
	total  int64
}

func (a *ackLog) ack(acct int64, seq uint64) {
	a.total++
	a.count[acct]++
	a.maxSeq[acct] = max(a.maxSeq[acct], seq)
}

// tpcbSetup opens, seeds and serves the run's database. The set-up is
// timed tpcbSetups times, each on a database of its own; the run keeps
// the last.
func tpcbSetup() (*server.Server, *client.Conn, []time.Duration, error) {
	var setups []time.Duration
	for i := 0; ; i++ {
		start := time.Now()
		cfg := dbConfig()
		db, err := tpcbDB(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		srv, c, err := serve(db, cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, time.Since(start))
		if i == tpcbSetups-1 {
			return srv, c, setups, nil
		}
		_ = c.Close()
		if err := srv.Close(); err != nil {
			return nil, nil, nil, err
		}
	}
}

// serve starts a server on db and dials one connection to it.
func serve(db *mmdb.DB, cfg mmdb.Config) (*server.Server, *client.Conn, error) {
	srv, err := server.New(db, cfg, server.Config{Workers: serverWorkers, Queue: tpcbQueueDepth})
	if err != nil {
		_ = db.Close()
		return nil, nil, err
	}
	c, err := client.Dial(srv.Addr())
	if err != nil {
		_ = srv.Close()
		return nil, nil, err
	}
	return srv, c, nil
}

// tpcbDB opens a database holding the debit/credit relations, their pk
// indexes and the base rows (docs/NETWORK.md's load-rig schema), and
// waits until its recovery component is idle. Each relation's rows are
// inserted in order in one transaction, so every seeded database has
// the same layout and the same log: rows seeded concurrently over the
// wire land in an order that differs from database to database (the
// median first commit of databases seeded so ranged from 0.3 to 2.0 ms
// in one run), and rows seeded in many small transactions leave bins
// whose page count varies with timing (the largest 12 to 21 pages in
// three runs), which every later recovery replays.
func tpcbDB(cfg mmdb.Config) (*mmdb.DB, error) {
	db, err := mmdb.Open(cfg)
	if err != nil {
		return nil, err
	}
	if err := seedTPCB(db); err != nil {
		_ = db.Close()
		return nil, fmt.Errorf("seed: %w", err)
	}
	db.WaitIdle()
	return db, nil
}

// seedTPCB creates the relations and pk indexes and inserts the base
// rows, one transaction per relation.
func seedTPCB(db *mmdb.DB) error {
	idBal := mmdb.Schema{{Name: "id", Type: mmdb.Int64}, {Name: "bal", Type: mmdb.Float64}}
	rels := []struct {
		name   string
		schema mmdb.Schema
		rows   int64
	}{
		{"accounts", append(idBal, mmdb.Column{Name: "seq", Type: mmdb.Int64}), tpcbAccounts},
		{"tellers", idBal, tpcbTellers},
		{"branches", idBal, tpcbBranches},
		{"history", mmdb.Schema{
			{Name: "account", Type: mmdb.Int64}, {Name: "teller", Type: mmdb.Int64},
			{Name: "branch", Type: mmdb.Int64}, {Name: "delta", Type: mmdb.Float64},
		}, 0},
	}
	for _, r := range rels {
		rel, err := db.CreateRelation(r.name, r.schema)
		if err != nil {
			return err
		}
		if r.rows == 0 {
			continue
		}
		if _, err := db.CreateIndex(rel, "pk", "id", mmdb.KindLinHash, 16); err != nil {
			return err
		}
		tx := db.Begin()
		for j := int64(0); j < r.rows; j++ {
			tup := mmdb.Tuple{j, 0.0}
			if r.name == "accounts" {
				tup = append(tup, int64(0))
			}
			if _, err := tx.Insert(rel, tup); err != nil {
				_ = tx.Abort()
				return fmt.Errorf("%s row %d: %w", r.name, j, err)
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// tpcbSchedule draws a session's arrivals and requests from the seed.
func tpcbSchedule(e *env, seconds float64) []tpcbOp {
	n := int(tpcbRate * seconds)
	at := workload.Arrivals{Rate: tpcbRate, Rng: e.rng}.Schedule(n)
	zipf := workload.NewZipf(e.rng, tpcbZipfS, tpcbAccounts)
	ops := make([]tpcbOp, n)
	for i := range ops {
		ops[i] = tpcbOp{
			at:     at[i],
			lookup: e.rng.Intn(100) < tpcbLookupPct,
			acct:   zipf.Next(),
			teller: e.rng.Int63n(tpcbTellers),
			branch: e.rng.Int63n(tpcbBranches),
		}
	}
	return ops
}

func runTPCB(e *env) (*result, error) {
	res := newResult()
	tot := newTotals()
	var (
		txnLat, readLat groups
		lateness        []sample
		units           []unit
		bins            []binState
		rttSum          time.Duration
		rttN            int64
		history         int64 // debit/credits committed: history rows
		userBytes       int64
	)
	classes := map[string]int64{}
	// fold adds a phase's burst credits, instrument deltas and gate.
	fold := func(sess *session) {
		res.attempted += sess.burst
		res.failed += sess.burstFailed
		for _, d := range sess.deltas {
			tot.add(d)
		}
		userBytes += sess.userBytes
		if sess.gate != nil && res.gate == nil {
			res.gate = sess.gate
		}
	}
	seq := uint64(0) // request sequence numbers, unique across the run
	acks := &ackLog{count: map[int64]int64{}, maxSeq: map[int64]uint64{}}
	var rs restartSamples
	srv, boot, setups, err := tpcbSetup()
	if err != nil {
		return nil, fmt.Errorf("tpcb setup: %w", err)
	}
	win := openWindow()
	for s := 0; s < tpcbSessions; s++ {
		sess, err := tpcbSession(e, srv, boot, &seq, acks)
		if err != nil {
			return nil, err
		}
		txnLat.next()
		readLat.next()
		for _, o := range sess.outs {
			ok := !o.tErr && o.status == proto.StatusOK
			smp := sample{o.lat.Nanoseconds(), ok}
			if o.op.lookup {
				readLat.add(smp)
			} else {
				txnLat.add(smp)
				if ok {
					history++
				}
				if !o.tErr {
					rttSum += o.rtt
					rttN++
				}
			}
			lateness = append(lateness, sample{o.late.Nanoseconds(), true})
			res.attempted++
			if !ok {
				res.failed++
				class := "transport"
				if !o.tErr {
					class = o.status.String()
				}
				classes[class]++
			}
		}
		units = append(units, sess.window)
		bins = append(bins, sess.bins)
		fold(sess)

		// The restarts are timed on the same database, in process: the
		// server is shut down, the database powered back up, crashed
		// tpcbCrashes times and served again by a new server.
		_ = boot.Close()
		db := srv.DB()
		hw, cfg := db.Manager().Hardware(), db.Manager().Config()
		if err := srv.Close(); err != nil {
			return nil, err
		}
		if db, err = mmdb.Recover(hw, cfg); err != nil {
			return nil, fmt.Errorf("restart after shutdown: %w", err)
		}
		settle(db)
		rsess, db, err := tpcbRestarts(e, db, &seq, acks)
		if err != nil {
			return nil, err
		}
		res.attempted += int64(len(rsess.restarts)) // first transactions
		fold(rsess)
		for _, rt := range rsess.restarts {
			rs.add(rt)
		}
		if srv, boot, err = serve(db, cfg); err != nil {
			return nil, err
		}
	}
	_ = boot.Close()
	if err := srv.Close(); err != nil {
		return nil, err
	}
	wall := win.close(res)
	setupMedian(res, setups)
	latencies(res, "txn", txnLat)
	latencies(res, "read", readLat)
	reportUnits(res, units)
	res.e2e["ok_ratio"] = okRatio(res.attempted, res.failed)
	late99 := ms(percentiles(lateness, 0.99)[0])
	res.layer["gen.lateness_p99_ms"] = late99
	fmt.Printf("perfbench tpcb: %d requests in %d sessions, %.2fs, %d history rows, failures by class %v\n",
		len(lateness), tpcbSessions, wall.Seconds(), history, classes)
	if late99 > tpcbBehindMS {
		fmt.Printf("perfbench tpcb: WARNING generator fell behind: lateness p99 %.2f ms > %.0f ms\n", late99, tpcbBehindMS)
	}

	// The server layer: executor time per opcode from the server's own
	// histograms; what the client's round trip spends outside the
	// executor (wire, decode, queue, socket write) is the wait.
	requests := tot.counter("server/requests")
	res.layer["server.requests"] = float64(requests)
	res.layer["server.reqs_per_flush"] = perOp(float64(requests), tot.counter("server/flushes"))
	exec := tot.mean("server/latency_debit-credit") / 1e3
	res.layer["server.exec_mean_us"] = exec
	res.layer["server.read_exec_mean_us"] = tot.mean("server/latency_lookup") / 1e3
	res.layer["server.wait_mean_us"] = remainder(perOp(float64(rttSum.Nanoseconds())/1e3, rttN), exec)
	rs.report(res)
	fillLayers(res, tot, userBytes, bins)
	layerSpans(res, e.rec)
	return res, nil
}

// session is one tpcb phase's raw results: a load window, or the
// restarts that follow it.
type session struct {
	outs     []outcome
	window   unit // the offered-load window
	bins     binState
	deltas   []delta // server registry, then each database generation
	restarts []restartTimes
	gate     error
	// burst and burstFailed count the credits run between crashes.
	burst, burstFailed int64
	userBytes          int64 // value bytes of every committed write
}

// tpcbSession offers one session's share of the run's load to the
// server and audits the acknowledged commits across a remote crash.
// The server recovers its database and serves the next session, so the
// history relation grows over the whole run.
func tpcbSession(e *env, srv *server.Server, boot *client.Conn, seq *uint64, acks *ackLog) (*session, error) {
	pool, err := client.DialPool(srv.Addr(), tpcbConns)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	ops := tpcbSchedule(e, e.seconds/tpcbSessions)
	sess := &session{}
	before, srvBefore := srv.DB().Metrics(), srv.Metrics()

	start, cpu0 := time.Now(), cpuNow()
	sess.outs = drive(e, pool, ops, *seq)
	sess.window = unit{wall: time.Since(start), cpu: cpuNow() - cpu0}
	*seq += uint64(len(ops))
	for _, o := range sess.outs {
		if o.tErr || o.status != proto.StatusOK {
			continue
		}
		sess.window.ok++
		if !o.op.lookup {
			acks.ack(o.op.acct, o.seq)
			sess.userBytes += tpcbUserBytes
		}
	}
	sess.bins = drainBins(srv.DB())
	sess.deltas = append(sess.deltas, delta{before: before, after: srv.DB().Metrics()})

	// Gate: an untimed remote crash, then the ack-log audit over the
	// wire.
	if _, err := boot.Crash(); err != nil {
		return nil, fmt.Errorf("remote crash: %w", err)
	}
	sess.gate = audit(boot, acks)
	// The recovered database sweeps and checkpoints in the background;
	// let it finish, so it does not compete with the restarts timed
	// next.
	settle(srv.DB())
	sess.deltas = append(sess.deltas, delta{after: srv.DB().Metrics()}, delta{before: srvBefore, after: srv.Metrics()})
	return sess, nil
}

// tpcbRestarts crashes the run's database tpcbCrashes times in
// process and returns the last recovered instance. Before each crash a
// burst of zipf account credits moves the hot bins through their
// checkpoint cycle, so the crashes meet bins of every length, and the
// database goes idle, as in the restart workload. The first
// transaction after each crash credits the hottest account. The
// credits join the run's ack log, and the gate is its audit after the
// last crash.
func tpcbRestarts(e *env, db *mmdb.DB, seq *uint64, acks *ackLog) (*session, *mmdb.DB, error) {
	sess := &session{}
	zipf := workload.NewZipf(e.rng, tpcbZipfS, tpcbAccounts)
	before := db.Metrics() // the restart after shutdown is not timed
	for i := 0; i < tpcbCrashes; i++ {
		for j := 0; j < tpcbBurst; j++ {
			*seq++
			acct := zipf.Next()
			req := e.rec.req()
			t0 := e.rec.now()
			err := creditAccount(e.rec, db, req, acct, *seq)
			e.rec.add(Span{ID: req, Req: req, Name: "bench.txn", Start: t0, End: e.rec.now()})
			sess.burst++
			if err != nil {
				sess.burstFailed++
				continue
			}
			acks.ack(acct, *seq)
			sess.userBytes += creditBytes
		}
		db.WaitIdle()
		*seq++
		sq := *seq
		sess.deltas = append(sess.deltas, delta{before: before, after: db.Metrics()})
		before = mmdb.MetricsSnapshot{} // a recovered database has a new registry
		db2, rt, err := crashRecover(e.rec, db, e.rec.id(), func(db *mmdb.DB, parent uint64) error {
			return creditAccount(e.rec, db, parent, 0, sq)
		})
		if err != nil {
			return nil, nil, err
		}
		db = db2
		acks.ack(0, sq)
		sess.userBytes += creditBytes
		sess.restarts = append(sess.restarts, rt)
	}
	sess.deltas = append(sess.deltas, delta{after: db.Metrics()})
	sess.gate = auditLocal(db, acks)
	return sess, db, nil
}

// creditAccount adds 1.0 to an account's balance and raises its stored
// seq to seq, in one in-process transaction.
func creditAccount(rec *Recorder, db *mmdb.DB, parent uint64, acct int64, seq uint64) error {
	rel, err := db.GetRelation("accounts")
	if err != nil {
		return err
	}
	t := begin(rec, db, parent, parent)
	id, tup, found, err := t.lookup(rel.Index("pk"), acct)
	if err == nil && !found {
		err = fmt.Errorf("account %d not found", acct)
	}
	if err == nil {
		bal, _ := tup[1].(float64)
		stored, _ := tup[2].(int64)
		err = t.update(rel, id, map[string]any{"bal": bal + 1, "seq": max(stored, int64(seq))})
	}
	return t.finish(err)
}

// drive fires every op at its scheduled instant and returns the
// outcomes. Latency runs from the scheduled send, so a stall that
// delays later sends counts against them (no coordinated omission).
// Debit/credits carry sequence numbers from seq+1.
func drive(e *env, pool *client.Pool, ops []tpcbOp, seq uint64) []outcome {
	outs := make([]outcome, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for i, op := range ops {
		due := start.Add(op.at)
		sleepUntil(due)
		req := proto.Request{Op: proto.OpLookup, Rel: "accounts", Idx: "pk", Vals: []any{op.acct}}
		if !op.lookup {
			req = proto.Request{Op: proto.OpDebitCredit, Account: op.acct, Teller: op.teller,
				Branch: op.branch, Delta: 1.0, Seq: seq + uint64(i) + 1}
		}
		id := e.rec.req()
		sent := time.Now()
		p := pool.Conn().Send(req)
		wg.Add(1)
		go func(i int, op tpcbOp, p *client.Pending, due, sent time.Time, id uint64) {
			defer wg.Done()
			resp, err := p.Wait()
			done := time.Now()
			o := outcome{op: op, late: sent.Sub(due), lat: done.Sub(due), rtt: done.Sub(sent),
				tErr: err != nil, status: resp.Status, seq: resp.Seq}
			outs[i] = o
			e.rec.add(Span{Parent: id, Req: id, Name: "gen.late", Start: e.rec.at(due), End: e.rec.at(sent)})
			e.rec.add(Span{Parent: id, Req: id, Name: "client.rtt", Start: e.rec.at(sent), End: e.rec.at(done)})
			e.rec.add(Span{ID: id, Req: id, Name: "bench.request", Start: e.rec.at(due), End: e.rec.now()})
		}(i, op, p, due, sent, id)
	}
	wg.Wait()
	return outs
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// scheduler's own timers round sub-millisecond sleeps of an idle
// process up to the millisecond, which would add up to a millisecond
// of generator lateness to every request.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// check compares one account's stored row with the ack log.
func (a *ackLog) check(acct int64, row []any) error {
	bal, _ := row[1].(float64)
	seq, _ := row[2].(int64)
	if int64(bal) < a.count[acct] || uint64(seq) < a.maxSeq[acct] {
		return fmt.Errorf("account %d: balance %v for %d acknowledged commits, seq %d for highest acknowledged %d",
			acct, bal, a.count[acct], seq, a.maxSeq[acct])
	}
	return nil
}

// audit checks over the wire that every acknowledged debit/credit
// survived: each account's stored balance is at least its acknowledged
// commits and its stored seq at least the highest acknowledged seq.
func audit(c *client.Conn, acks *ackLog) error {
	accts := sortedKeys(acks.count)
	pend := make([]*client.Pending, len(accts))
	for i, a := range accts {
		pend[i] = c.Send(proto.Request{Op: proto.OpLookup, Rel: "accounts", Idx: "pk", Vals: []any{a}})
	}
	var lost []error
	for i, p := range pend {
		resp, err := p.Wait()
		if err == nil {
			err = client.Err(resp)
		}
		if err == nil && len(resp.Rows) != 1 {
			err = errors.New("not exactly one row")
		}
		if err != nil {
			return fmt.Errorf("audit account %d: %w", accts[i], err)
		}
		if err := acks.check(accts[i], resp.Rows[0].Tuple); err != nil {
			lost = append(lost, err)
		}
	}
	if len(lost) > 0 {
		return fmt.Errorf("acknowledged commits lost: %w", errors.Join(lost...))
	}
	return nil
}

// auditLocal is the audit on an in-process database.
func auditLocal(db *mmdb.DB, acks *ackLog) error {
	rel, err := db.GetRelation("accounts")
	if err != nil {
		return err
	}
	for _, acct := range sortedKeys(acks.count) {
		t := begin(nil, db, 0, 0)
		_, tup, found, err := t.lookup(rel.Index("pk"), acct)
		if err = t.finish(err); err != nil {
			return fmt.Errorf("audit account %d: %w", acct, err)
		}
		if !found {
			return fmt.Errorf("audit account %d: not found", acct)
		}
		if err := acks.check(acct, tup); err != nil {
			return fmt.Errorf("acknowledged commits lost: %w", err)
		}
	}
	return nil
}
