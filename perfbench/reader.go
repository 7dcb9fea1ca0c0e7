package main

import (
	"net/http"
	"time"
)

const (
	readerPeriod = 100 * time.Millisecond // StatusView at 10 Hz
	scrapeEvery  = 10                     // one /metrics scrape per 10 ticks (1 Hz)
)

// readerResult is what fleet's open-loop status reader saw. Every read is
// timed from when it was due, so a stall also charges the reads queued
// behind it.
type readerResult struct {
	status []time.Duration // StatusView latency from its due time
	age    []time.Duration // Manager.ViewAge of the view returned
	late   []time.Duration // how late each tick started against its schedule
	scrape []time.Duration // time in Exporter.ServeHTTP("/metrics")
	// buildMax is the largest SnapshotLastBuild seen after any read.
	buildMax time.Duration
}

// newReaderResult sizes the reader's sample buffers for a window.
func newReaderResult(window time.Duration) *readerResult {
	n := int(window/readerPeriod) + 1
	return &readerResult{
		status: make([]time.Duration, 0, n),
		age:    make([]time.Duration, 0, n),
		late:   make([]time.Duration, 0, n),
		scrape: make([]time.Duration, 0, n/scrapeEvery+1),
	}
}

// runReader reads sys's status view at a fixed 10 Hz from start until
// deadline and scrapes /metrics at 1 Hz, like an operator's dashboard,
// appending what it sees to r.
func runReader(sys *system, start, deadline time.Time, tr *tracer, r *readerResult) {
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		panic(err) // constant, well-formed request
	}
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * readerPeriod)
		if !due.Before(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		t0 := time.Now()
		r.late = append(r.late, t0.Sub(due))
		var tick int64
		if tr != nil {
			tick = tr.newID()
		}
		v := sys.mgr.StatusView()
		t1 := time.Now()
		r.status = append(r.status, t1.Sub(due))
		r.age = append(r.age, sys.mgr.ViewAge(v))
		if b := sys.mgr.SelfStats().SnapshotLastBuild; b > r.buildMax {
			r.buildMax = b
		}
		if tr != nil {
			tr.record(span{ID: tr.newID(), Parent: tick, Req: tick, Name: "core.status_view", Start: tr.at(t0), End: tr.at(t1)})
		}
		if i%scrapeEvery == 0 {
			c0 := time.Now()
			sys.exp.ServeHTTP(&discardWriter{h: http.Header{}}, req)
			c1 := time.Now()
			r.scrape = append(r.scrape, c1.Sub(c0))
			if tr != nil {
				tr.record(span{ID: tr.newID(), Parent: tick, Req: tick, Name: "telemetry.scrape", Start: tr.at(c0), End: tr.at(c1)})
			}
		}
		if tr != nil {
			tr.record(span{ID: tick, Req: tick, Name: "reader.tick", Start: tr.at(due), End: tr.now()})
		}
	}
}

// discardWriter is an http.ResponseWriter that drops the body.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}
