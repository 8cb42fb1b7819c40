package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer. Name is
// "<layer>.<operation>"; Parent is the ID of the enclosing span (0 for
// a root); every span of one request or cycle shares Req.
type Span struct {
	ID, Parent, Req uint64
	Name            string
	Start, End      int64 // ns since the recorder's epoch
}

func (s Span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Recorder keeps spans in memory until the run ends. A nil Recorder is
// the untraced run: every method is a no-op, so workload code records
// spans unconditionally. Spans with no request ID are not recorded.
type Recorder struct {
	epoch time.Time
	every uint64 // record one request in every
	mu    sync.Mutex
	next  uint64
	reqs  uint64 // requests offered to req
	spans []Span
}

// traceEvery is the request sampling rate of the traced run: one
// request in traceEvery has its spans recorded, which keeps a run's
// trace to some tens of megabytes. It is odd so that requests issued in
// pairs (ingest reads a key through each of its two indexes) are both
// sampled. Crash cycles are always recorded.
const traceEvery = 17

func newRecorder(every uint64) *Recorder { return &Recorder{epoch: time.Now(), every: every} }

// now returns the recorder clock (0 on a nil recorder).
func (r *Recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// at converts a wall-clock instant to the recorder clock.
func (r *Recorder) at(t time.Time) int64 {
	if r == nil {
		return 0
	}
	return int64(t.Sub(r.epoch))
}

// id reserves a span ID, so children can name a parent that is
// recorded after them.
func (r *Recorder) id() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// req starts a sampled request: it returns a request ID for one call
// in every r.every and 0, which records nothing, for the others.
func (r *Recorder) req() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.reqs++
	sampled := r.reqs%r.every == 0
	r.mu.Unlock()
	if !sampled {
		return 0
	}
	return r.id()
}

// add records a finished span; a zero ID is assigned one.
func (r *Recorder) add(s Span) {
	if r == nil || s.Req == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.ID == 0 {
		r.next++
		s.ID = r.next
	}
	r.next = max(r.next, s.ID)
	r.spans = append(r.spans, s)
}

// since records a span named name that started at start and ends now.
func (r *Recorder) since(name string, parent, req uint64, start int64) {
	if r == nil || req == 0 {
		return
	}
	r.add(Span{Parent: parent, Req: req, Name: name, Start: start, End: r.now()})
}

// recorded returns a copy of the recorded spans.
func (r *Recorder) recorded() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children are
// counted once, and a child's time outside its parent is ignored).
func selfTimes(spans []Span) map[uint64]int64 {
	kids := map[uint64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered := int64(0)
		cur := s.Start // end of the covered prefix so far
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByLayer sums self time per layer.
func selfByLayer(spans []Span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[s.layer()] += self[s.ID]
	}
	return out
}

// layerSpans derives the per-call facade metrics and the layer-sum
// remainders from the recorded spans. Each remainder is the mean self
// time of a benchmark span whose children are the measured parts of a
// relation: a transaction (begin + inserts or updates + commit), and
// the first commit after a crash (Recover + the first transaction).
// A tpcb request has no remainder: its span and its two children
// (gen.late, client.rtt) are cut from the same three timestamps.
func layerSpans(res *result, rec *Recorder) {
	spans := rec.recorded()
	if len(spans) == 0 {
		return
	}
	self := selfTimes(spans)
	durs := map[string][]sample{}
	selfSum, selfN := map[string]int64{}, map[string]int64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], sample{s.End - s.Start, true})
		selfSum[s.Name] += self[s.ID]
		selfN[s.Name]++
	}
	meanUS := func(name string) float64 {
		var sum int64
		for _, d := range durs[name] {
			sum += d.ns
		}
		return perOp(float64(sum), int64(len(durs[name]))) / 1e3
	}
	p99US := func(name string) float64 { return percentiles(durs[name], 0.99)[0] / 1e3 }
	selfUS := func(name string) float64 { return perOp(float64(selfSum[name]), selfN[name]) / 1e3 }
	l := res.layer
	l["mmdb.begin_mean_us"] = meanUS("mmdb.begin")
	l["mmdb.insert_mean_us"] = meanUS("mmdb.insert")
	l["mmdb.insert_p99_us"] = p99US("mmdb.insert")
	l["mmdb.commit_mean_us"] = meanUS("mmdb.commit")
	l["mmdb.commit_p99_us"] = p99US("mmdb.commit")
	l["mmdb.update_mean_us"] = meanUS("mmdb.update")
	l["ttree.lookup_mean_us"] = meanUS("ttree.lookup")
	l["linhash.lookup_mean_us"] = meanUS("linhash.lookup")
	l["budget.txn_remainder_us"] = selfUS("bench.txn")
	l["budget.first_commit_remainder_us"] = selfUS("bench.first_commit")
}

// writeChrome writes spans as Chrome trace_event JSON (the format of
// docs/TRACING.md's export): one complete ("X") event per span, one
// lane per layer, with the span, parent and request IDs as args.
func writeChrome(w io.Writer, spans []Span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	lanes := map[string]int{}
	var out []event
	for _, s := range spans {
		l := s.layer()
		tid, ok := lanes[l]
		if !ok {
			tid = len(lanes) + 1
			lanes[l] = tid
			out = append(out, event{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": l}})
		}
		out = append(out, event{
			Name: s.Name, Cat: l, Ph: "X", PID: 1, TID: tid,
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": out})
}
