package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pbox/internal/core"
	"pbox/internal/exec"
	"pbox/internal/isolation"
)

// The traced run inserts the wrappers in this file around calls into each
// layer's public interfaces. Spans are kept at frame and request
// granularity; per-event costs are counters (calls and total ns) at the same
// boundaries, so the trace stays bounded whatever the event rate.

// counter accumulates calls and time spent in them.
type counter struct{ calls, ns atomic.Int64 }

func (c *counter) since(t0 time.Time) {
	c.calls.Add(1)
	c.ns.Add(int64(time.Since(t0)))
}

// span is one traced interval. Times are ns since the tracer started.
// Calls/CallNs carry the per-event counters of the calls made inside the
// span (events encoded in a frame, Activity.Event calls in a request).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
	CallNs int64  `json:"call_ns,omitempty"`
}

// maxSpans bounds the in-memory trace; spans past it are counted, not kept.
const maxSpans = 1 << 18

// tracer holds everything one traced phase records.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64

	// Observer chain: chain wraps the flight recorder (the whole chain as
	// the manager sees it), collector wraps the telemetry collector.
	chain, collector counter

	// Time the feeders spend encoding events with wire.Client.
	encode counter

	// Wire server connections, seen through the listener wrapper.
	readNs, readBytes atomic.Int64

	// Penalty sleeps through Options.Sleep, per goroutine.
	sleepMu  sync.Mutex
	sleepByG map[uint64]*atomic.Int64

	// Isolation layer, seen through the Controller/Activity wrapper.
	eventNs, endNs        hist
	gateNs                atomic.Int64
	victimWait, noisyHold hist
	noisySlept            atomic.Pointer[atomic.Int64]
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sleepByG: make(map[uint64]*atomic.Int64)}
}

func (t *tracer) now() int64           { return int64(time.Since(t.t0)) }
func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.t0)) }
func (t *tracer) newID() int64         { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// selfTimes reduces the spans to per-name count, mean duration and mean
// self time (duration minus the time its child spans cover).
type selfTime struct {
	Name   string
	Count  int
	MeanUs float64
	SelfUs float64
}

func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	type acc struct {
		n          int
		dur, selfT int64
	}
	by := map[string]*acc{}
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		d := s.End - s.Start
		a.n++
		a.dur += d
		a.selfT += d - child[s.ID]
	}
	out := make([]selfTime, 0, len(by))
	for name, a := range by {
		out = append(out, selfTime{
			Name:   name,
			Count:  a.n,
			MeanUs: float64(a.dur) / float64(a.n) / 1e3,
			SelfUs: float64(a.selfT) / float64(a.n) / 1e3,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeSpans writes the spans as JSON lines to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// goid returns the calling goroutine's id. It parses runtime.Stack, so it is
// only called where the cost does not matter: once per activity and once
// per penalty sleep.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	i := 0
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	id, _ := strconv.ParseUint(string(b[:i]), 10, 64)
	return id
}

func (t *tracer) sleepSlot(g uint64) *atomic.Int64 {
	t.sleepMu.Lock()
	defer t.sleepMu.Unlock()
	s := t.sleepByG[g]
	if s == nil {
		s = new(atomic.Int64)
		t.sleepByG[g] = s
	}
	return s
}

// sleep is the Options.Sleep wrapper: the default penalty sleep, with the
// time asleep charged to the sleeping goroutine.
func (t *tracer) sleep(d time.Duration) {
	t0 := time.Now()
	exec.SleepPrecise(d)
	t.sleepSlot(goid()).Add(int64(time.Since(t0)))
}

// timedObserver forwards every callback to the observer it wraps and times
// the per-event ones. It implements exactly Observer and
// AttributionObserver, like the telemetry Collector.
type timedObserver struct {
	next core.Observer
	attr core.AttributionObserver
	c    *counter
}

// timedEventObserver adds EventTimeObserver, like the flight recorder.
type timedEventObserver struct {
	timedObserver
	et core.EventTimeObserver
}

// wrapObserver wraps o in the timing wrapper that exposes the same optional
// interfaces o does, so the manager's and the flight recorder's type
// assertions choose the same delivery path as without the wrapper.
func wrapObserver(o core.Observer, c *counter) core.Observer {
	attr, isAttr := o.(core.AttributionObserver)
	et, isET := o.(core.EventTimeObserver)
	if _, isLC := o.(core.LifecycleObserver); isLC || !isAttr {
		panic(fmt.Sprintf("perfbench: no timing wrapper for observer %T", o))
	}
	base := timedObserver{next: o, attr: attr, c: c}
	if isET {
		return &timedEventObserver{timedObserver: base, et: et}
	}
	return &base
}

func (o *timedObserver) PBoxCreated(id int, rule core.IsolationRule) { o.next.PBoxCreated(id, rule) }
func (o *timedObserver) PBoxReleased(id int)                         { o.next.PBoxReleased(id) }
func (o *timedObserver) StateEvent(pboxID int, key core.ResourceKey, ev core.EventType) {
	t0 := time.Now()
	o.next.StateEvent(pboxID, key, ev)
	o.c.since(t0)
}
func (o *timedObserver) ActivityEnd(pboxID int, deferNs, execNs int64) {
	o.next.ActivityEnd(pboxID, deferNs, execNs)
}
func (o *timedObserver) Detection(noisyID, victimID int, key core.ResourceKey, projected float64) {
	o.next.Detection(noisyID, victimID, key, projected)
}
func (o *timedObserver) PenaltyAction(noisyID, victimID int, key core.ResourceKey, policy core.PolicyKind, length time.Duration) {
	o.next.PenaltyAction(noisyID, victimID, key, policy, length)
}
func (o *timedObserver) PenaltyServed(pboxID int, d time.Duration) { o.next.PenaltyServed(pboxID, d) }
func (o *timedObserver) Blocked(culpritID, victimID int, key core.ResourceKey, deferNs int64) {
	o.attr.Blocked(culpritID, victimID, key, deferNs)
}
func (o *timedObserver) PenaltyServedFor(culpritID, victimID int, key core.ResourceKey, d time.Duration) {
	o.attr.PenaltyServedFor(culpritID, victimID, key, d)
}
func (o *timedEventObserver) StateEventAt(pboxID int, key core.ResourceKey, ev core.EventType, atNs int64) {
	t0 := time.Now()
	o.et.StateEventAt(pboxID, key, ev, atNs)
	o.c.since(t0)
}

// timedListener wraps the wire server's listener so every accepted
// connection reports the time its reader spends blocked in Read and the
// bytes it read.
type timedListener struct {
	net.Listener
	t *tracer
}

func (l *timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: c, t: l.t}, nil
}

type timedConn struct {
	net.Conn
	t *tracer
}

func (c *timedConn) Read(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(b)
	c.t.readNs.Add(int64(time.Since(t0)))
	c.t.readBytes.Add(int64(n))
	return n, err
}

// timedController wraps an isolation controller; its activities time each
// call into the isolation layer and watch the victim's and the noisy
// tenant's virtual-resource intervals.
type timedController struct {
	isolation.Controller
	t             *tracer
	victim, noisy string // activity names
}

func (c *timedController) ConnStart(name string, kind isolation.Kind) isolation.Activity {
	return &timedActivity{
		Activity: c.Controller.ConnStart(name, kind),
		t:        c.t,
		victim:   name == c.victim,
		noisy:    name == c.noisy,
		since:    map[core.ResourceKey]int64{},
	}
}

// timedActivity is used by one goroutine at a time, like the activity it
// wraps, so its own fields need no locking.
type timedActivity struct {
	isolation.Activity
	t             *tracer
	victim, noisy bool
	slept         *atomic.Int64 // penalty sleeps of the activity's goroutine

	since map[core.ResourceKey]int64 // PREPARE (victim) or HOLD (noisy) time

	req        int64 // current request span id (0 = none)
	reqStart   int64
	reqEvents  int64
	reqEventNs int64
}

func (a *timedActivity) Gate() time.Duration {
	a.req, a.reqStart = a.t.newID(), a.t.now()
	d := a.Activity.Gate()
	a.t.gateNs.Add(int64(d))
	return d
}

func (a *timedActivity) Begin(reqType string) {
	if a.slept == nil {
		a.slept = a.t.sleepSlot(goid())
		if a.noisy {
			a.t.noisySlept.Store(a.slept)
		}
	}
	if a.req == 0 {
		a.req, a.reqStart = a.t.newID(), a.t.now()
	}
	s0 := a.t.now()
	a.Activity.Begin(reqType)
	a.t.record(span{ID: a.t.newID(), Parent: a.req, Req: a.req, Name: "isolation.begin", Start: s0, End: a.t.now()})
}

func (a *timedActivity) Event(key core.ResourceKey, ev core.EventType) {
	if a.slept == nil { // outside any activity of the client goroutine
		a.Activity.Event(key, ev)
		return
	}
	t0 := a.t.now()
	sl := a.slept.Load()
	a.Activity.Event(key, ev)
	d := a.t.now() - t0 - (a.slept.Load() - sl)
	a.t.eventNs.observe(d)
	a.reqEvents++
	a.reqEventNs += d
	switch {
	case a.victim && ev == core.Prepare, a.noisy && ev == core.Hold:
		a.since[key] = t0
	case a.victim && ev == core.Enter:
		if s, ok := a.since[key]; ok {
			a.t.victimWait.observe(t0 - s)
			delete(a.since, key)
		}
	case a.noisy && ev == core.Unhold:
		if s, ok := a.since[key]; ok {
			a.t.noisyHold.observe(t0 - s)
			delete(a.since, key)
		}
	}
}

func (a *timedActivity) End(latency time.Duration) {
	if a.slept == nil {
		a.Activity.End(latency)
		return
	}
	t0 := a.t.now()
	sl := a.slept.Load()
	a.Activity.End(latency)
	t1 := a.t.now()
	a.t.endNs.observe(t1 - t0 - (a.slept.Load() - sl))
	a.t.record(span{ID: a.t.newID(), Parent: a.req, Req: a.req, Name: "isolation.end", Start: t0, End: t1})
	a.t.record(span{ID: a.req, Req: a.req, Name: "tickets.request", Start: a.reqStart, End: t1,
		Calls: a.reqEvents, CallNs: a.reqEventNs})
	a.req, a.reqEvents, a.reqEventNs = 0, 0, 0
}
