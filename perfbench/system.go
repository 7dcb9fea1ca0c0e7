package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"

	"pbox/internal/core"
	"pbox/internal/flightrec"
	"pbox/internal/telemetry"
	"pbox/internal/wire"
)

// system is the system under test, wired the way cmd/pboxd wires it:
// manager → flight recorder → telemetry collector observer chain with
// attribution and a 4096-entry trace ring, the wire ingestion server with
// default (unlimited) admission on a loopback listener, and the telemetry
// exporter. Shards, spool, snapshot interval and topology keep their
// defaults, and no EventFilter is set, as in pboxd.
type system struct {
	reg  *telemetry.Registry
	rec  *flightrec.Recorder
	mgr  *core.Manager
	exp  *telemetry.Exporter
	wsrv *wire.Server
	addr string

	served chan error
}

// buildSystem builds a fresh system whose incident bundles go to dir. With a
// tracer, timing wrappers sit between the manager and the flight recorder,
// between the recorder and the collector, around Options.Sleep and around
// the wire listener; without one the wiring is exactly pboxd's.
func buildSystem(dir string, tr *tracer) (*system, error) {
	reg := telemetry.NewRegistry()
	col := telemetry.NewCollector(reg)
	var next core.Observer = col
	if tr != nil {
		next = wrapObserver(col, &tr.collector)
	}
	rec := flightrec.New(flightrec.Config{Dir: dir, Next: next})
	var obs core.Observer = rec
	if tr != nil {
		obs = wrapObserver(rec, &tr.chain)
	}
	opts := core.Options{TraceSize: 4096, Attribution: true, Observer: obs}
	if tr != nil {
		opts.Sleep = tr.sleep
	}
	mgr := core.NewManager(opts)
	col.AttachNamer(mgr)
	rec.AttachManager(mgr)

	wsrv := wire.NewServer(mgr, wire.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rec.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	if tr != nil {
		ln = &timedListener{Listener: ln, t: tr}
	}
	exp := telemetry.NewExporter(reg, mgr)
	exp.AttachFlightRecorder(rec)
	exp.AttachWire(wsrv)
	s := &system{
		reg: reg, rec: rec, mgr: mgr, exp: exp, wsrv: wsrv,
		addr:   ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- wsrv.Serve(ln) }()
	return s, nil
}

// close shuts the system down in pboxd's order: the wire server drains its
// connections' spools, a final snapshot sweeps the remaining worker spools,
// and the flight recorder writes out its pending bundles.
func (s *system) close() error {
	var err error
	select {
	case err = <-s.served: // the accept loop failed before Close
		if err == nil {
			err = errors.New("stopped before close")
		}
		s.wsrv.Close()
	default:
		s.wsrv.Close()
		<-s.served // after Close, Serve's result only says it was closed
	}
	_ = s.mgr.Snapshots()
	s.rec.Close()
	if err != nil {
		return fmt.Errorf("wire serve: %w", err)
	}
	return nil
}

// appliedEvents is the number of state events the manager delivered to the
// telemetry collector (pbox_events_total summed over event types).
func (s *system) appliedEvents() int64 {
	var n int64
	for _, ev := range []core.EventType{core.Prepare, core.Enter, core.Hold, core.Unhold} {
		n += s.reg.Counter("pbox_events_total", "",
			telemetry.Label{Name: "event", Value: ev.String()}).Value()
	}
	return n
}

// heapAfterGC returns HeapAlloc after a forced collection.
func heapAfterGC() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// scratchDirs hands out fresh incident directories under one root and
// removes them all at the end of the run.
type scratchDirs struct {
	root string
	n    int
}

func (d *scratchDirs) next() string {
	d.n++
	return filepath.Join(d.root, fmt.Sprintf("incidents-%d", d.n))
}

func (d *scratchDirs) cleanup() { os.RemoveAll(d.root) }
