package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSelfTimeOfNestedSpans(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "bench.txn", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "mmdb.insert", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "mmdb.insert", Start: 20, End: 50},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "mmdb.commit", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Name: "ttree.lookup", Start: 12, End: 18}, // grandchild
	}
	self := selfTimes(spans)
	// Children cover [10,50] and [90,100] of the parent: 50 of 100.
	want := map[uint64]int64{1: 50, 2: 14, 3: 30, 4: 30, 5: 6}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
	layers := selfByLayer(spans)
	if layers["bench"] != 50 || layers["mmdb"] != 74 || layers["ttree"] != 6 {
		t.Errorf("self by layer = %v", layers)
	}
}

func TestLayerSumRemainder(t *testing.T) {
	if r := remainder(100, 30, 50); r != 20 {
		t.Errorf("remainder = %v, want 20", r)
	}
	if r := remainder(100); r != 100 {
		t.Errorf("remainder with no parts = %v, want 100", r)
	}
	// A transaction span of 10µs whose begin, insert and commit spans
	// cover 9µs leaves a 1µs remainder.
	rec := newRecorder(1)
	rec.add(Span{ID: 1, Req: 1, Name: "bench.txn", Start: 0, End: 10000})
	rec.add(Span{Parent: 1, Req: 1, Name: "mmdb.begin", Start: 0, End: 1000})
	rec.add(Span{Parent: 1, Req: 1, Name: "mmdb.insert", Start: 1000, End: 6000})
	rec.add(Span{Parent: 1, Req: 1, Name: "mmdb.commit", Start: 7000, End: 10000})
	res := newResult()
	layerSpans(res, rec)
	if got := res.layer["budget.txn_remainder_us"]; got != 1 {
		t.Errorf("txn remainder = %v µs, want 1", got)
	}
	if got := res.layer["mmdb.insert_mean_us"]; got != 5 {
		t.Errorf("insert mean = %v µs, want 5", got)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var rec *Recorder
	rec.add(Span{Req: 1, Name: "bench.txn"})
	rec.since("bench.txn", 0, 1, rec.now())
	if rec.id() != 0 || rec.req() != 0 || rec.recorded() != nil {
		t.Fatal("nil recorder recorded something")
	}
}

func TestRecorderSamplesRequests(t *testing.T) {
	rec := newRecorder(4)
	var sampled int
	for i := 0; i < 100; i++ {
		req := rec.req()
		if req != 0 {
			sampled++
		}
		rec.since("bench.txn", 0, req, rec.now())
	}
	if sampled != 25 || len(rec.recorded()) != 25 {
		t.Fatalf("sampled %d requests, recorded %d spans; want 25 and 25", sampled, len(rec.recorded()))
	}
}

func TestWriteChrome(t *testing.T) {
	spans := []Span{
		{ID: 1, Req: 1, Name: "bench.request", Start: 1000, End: 5000},
		{ID: 2, Parent: 1, Req: 1, Name: "client.rtt", Start: 2000, End: 4000},
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	var complete, lanes int
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "M":
			lanes++
		case "X":
			complete++
			if ev.Name == "client.rtt" && (ev.TS != 2 || ev.Dur != 2 || ev.Args["parent"] != 1.0) {
				t.Errorf("client.rtt event = %+v", ev)
			}
		}
	}
	if complete != 2 || lanes != 2 {
		t.Errorf("%d complete events on %d lanes, want 2 on 2", complete, lanes)
	}
}
