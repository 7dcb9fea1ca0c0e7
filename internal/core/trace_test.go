package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTraceRingWraparound(t *testing.T) {
	r := newTraceRing(4)
	for i := 0; i < 10; i++ {
		r.add(TraceEntry{PBox: i})
	}
	got := r.snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot length = %d, want 4", len(got))
	}
	// Oldest-first: entries 6,7,8,9.
	for i, e := range got {
		if e.PBox != 6+i {
			t.Fatalf("entry %d = pbox %d, want %d", i, e.PBox, 6+i)
		}
	}
}

func TestTraceRingPartialFill(t *testing.T) {
	r := newTraceRing(8)
	r.add(TraceEntry{PBox: 1})
	r.add(TraceEntry{PBox: 2})
	got := r.snapshot()
	if len(got) != 2 || got[0].PBox != 1 || got[1].PBox != 2 {
		t.Fatalf("snapshot = %+v", got)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	m := NewManager(Options{})
	p, _ := m.Create(DefaultRule())
	m.Activate(p)
	m.Freeze(p)
	if tr := m.Trace(); tr != nil {
		t.Fatalf("trace = %v with tracing disabled", tr)
	}
}

func TestTraceEntryString(t *testing.T) {
	e := TraceEntry{At: time.Millisecond, PBox: 3, Key: 0x10, What: "HOLD"}
	s := e.String()
	for _, part := range []string{"pbox=3", "0x10", "HOLD"} {
		if !strings.Contains(s, part) {
			t.Fatalf("entry string %q missing %q", s, part)
		}
	}
	withExtra := TraceEntry{At: time.Millisecond, PBox: 3, What: "penalty", Extra: 2 * time.Millisecond}
	if !strings.Contains(withExtra.String(), "2ms") {
		t.Fatalf("entry string %q missing penalty length", withExtra.String())
	}
}

func TestTraceCapturesActions(t *testing.T) {
	h := newHarness(t)
	noisy := h.pbox(0.5)
	victim := h.pbox(0.5)
	h.m.Activate(noisy)
	h.m.Activate(victim)
	h.m.Update(noisy, ResourceKey(1), Hold)
	h.m.Update(victim, ResourceKey(1), Prepare)
	h.advance(5 * time.Millisecond)
	h.m.Update(noisy, ResourceKey(1), Unhold)

	var sawAction, sawPenalty bool
	for _, e := range h.m.Trace() {
		if strings.HasPrefix(e.What, "action:") {
			sawAction = true
			if e.Extra <= 0 {
				t.Fatal("action entry missing penalty length")
			}
		}
		if e.What == "penalty" {
			sawPenalty = true
		}
	}
	if !sawAction || !sawPenalty {
		t.Fatalf("trace missing action/penalty entries: action=%v penalty=%v", sawAction, sawPenalty)
	}
}

func TestTraceRingZeroCapacity(t *testing.T) {
	// A zero or negative requested capacity must clamp to a usable ring
	// instead of dividing by cap()==0 on the wraparound path.
	for _, n := range []int{0, -4} {
		r := newTraceRing(n)
		for i := 0; i < 3; i++ {
			r.add(TraceEntry{What: "e", PBox: i})
		}
		got := r.snapshot()
		if len(got) != 1 || got[0].PBox != 2 {
			t.Fatalf("newTraceRing(%d): snapshot = %+v, want the single latest entry", n, got)
		}
	}
}

func TestTraceSinceAndNotify(t *testing.T) {
	h := newHarness(t)
	p := h.pbox(0.5)
	h.m.Activate(p)

	all, next := h.m.TraceSince(0)
	if len(all) == 0 || next == 0 {
		t.Fatalf("TraceSince(0) = %d entries, next=%d; want the create/activate entries", len(all), next)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Fatalf("sequence numbers not increasing: %d then %d", all[i-1].Seq, all[i].Seq)
		}
	}
	if all[len(all)-1].Seq != next {
		t.Fatalf("next=%d does not match tail seq %d", next, all[len(all)-1].Seq)
	}

	// Caught up: nothing new, and the notify channel must block.
	more, next2 := h.m.TraceSince(next)
	if len(more) != 0 || next2 != next {
		t.Fatalf("TraceSince(tail) = %d entries, next=%d; want 0, %d", len(more), next2, next)
	}
	select {
	case <-h.m.TraceNotify(next):
		t.Fatal("TraceNotify fired with no new entries")
	default:
	}

	// A new event closes the channel and shows up incrementally.
	ch := h.m.TraceNotify(next)
	h.m.Update(p, ResourceKey(9), Prepare)
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("TraceNotify did not fire after a new event")
	}
	fresh, next3 := h.m.TraceSince(next)
	if len(fresh) == 0 || next3 <= next {
		t.Fatalf("TraceSince(%d) after event = %d entries, next=%d", next, len(fresh), next3)
	}
	for _, e := range fresh {
		if e.Seq <= next {
			t.Fatalf("incremental snapshot returned stale entry seq=%d <= %d", e.Seq, next)
		}
	}

	// TraceNotify on an already-passed sequence is immediately closed.
	select {
	case <-h.m.TraceNotify(next):
	default:
		t.Fatal("TraceNotify(stale) should be immediately closed")
	}
}

func TestTraceDisabledSinceNotify(t *testing.T) {
	m := NewManager(Options{})
	if entries, next := m.TraceSince(0); entries != nil || next != 0 {
		t.Fatalf("TraceSince on disabled tracing = %v, %d; want nil, 0", entries, next)
	}
	if ch := m.TraceNotify(0); ch != nil {
		t.Fatal("TraceNotify on disabled tracing should be nil")
	}
}

func TestTraceEntryStringUsesName(t *testing.T) {
	e := TraceEntry{At: time.Millisecond, PBox: 3, Key: ResourceKey(0xbeef), Name: "bufpool", What: "ENTER"}
	s := e.String()
	if !strings.Contains(s, "bufpool") || strings.Contains(s, "0xbeef") {
		t.Fatalf("String() = %q; want the registered name, not the raw key", s)
	}
}

func TestNameResourceFlowsIntoTrace(t *testing.T) {
	h := newHarness(t)
	key := ResourceKey(0x1234)
	h.m.NameResource(key, "bufpool")
	if got := h.m.ResourceName(key); got != "bufpool" {
		t.Fatalf("ResourceName = %q, want bufpool", got)
	}
	p := h.pbox(0.5)
	h.m.Activate(p)
	h.m.Update(p, key, Prepare)
	var found bool
	for _, e := range h.m.Trace() {
		if e.Key == key && e.What == "PREPARE" {
			found = true
			if e.Name != "bufpool" {
				t.Fatalf("trace entry Name = %q, want bufpool", e.Name)
			}
		}
	}
	if !found {
		t.Fatal("no PREPARE trace entry for the named resource")
	}
	// Unregistering reverts to the raw key.
	h.m.NameResource(key, "")
	if got := h.m.ResourceName(key); got != "" {
		t.Fatalf("ResourceName after unregister = %q, want empty", got)
	}
}

// notified reports whether ch is closed, waiting up to d for it; with d = 0
// it only checks.
func notified(ch <-chan struct{}, d time.Duration) bool {
	if d == 0 {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}

// TestTraceNotifyLazyArming covers the lazily armed wakeup: a waiter armed
// before a single add is woken; a waiter armed before a batched spool replay
// is woken by the replay's one run append; a since the ring has already
// passed gets a closed channel without arming; and adds with no waiter leave
// the ring unarmed.
func TestTraceNotifyLazyArming(t *testing.T) {
	h := newHarness(t)
	p := h.pbox(0.5)
	h.m.Activate(p)
	r := h.m.trace

	// Adds with nobody waiting arm nothing.
	h.m.Update(p, ResourceKey(1), Hold)
	if r.notify != nil {
		t.Fatal("an add with no waiter armed the wakeup channel")
	}

	// Single add.
	_, tail := h.m.TraceSince(0)
	ch := h.m.TraceNotify(tail)
	if notified(ch, 0) {
		t.Fatal("caught-up waiter woken before any add")
	}
	if again := h.m.TraceNotify(tail); again != ch {
		t.Fatal("a second caught-up waiter did not share the armed channel")
	}
	h.m.Update(p, ResourceKey(1), Unhold)
	if !notified(ch, time.Second) {
		t.Fatal("waiter armed before a single add was not woken")
	}
	if r.notify != nil {
		t.Fatal("the add did not disarm the wakeup channel")
	}

	// Batched replay: spooled events reach the ring only at the flush, as
	// one run append, which must wake a waiter armed before it.
	w := h.m.NewWorker()
	if err := w.BindDirect(p); err != nil {
		t.Fatal(err)
	}
	_, tail = h.m.TraceSince(0)
	for i := 0; i < 8; i++ {
		w.Update(ResourceKey(2), Hold)
		w.Update(ResourceKey(2), Unhold)
	}
	ch = h.m.TraceNotify(tail)
	if notified(ch, 0) {
		t.Fatal("waiter woken while the events were still spooled")
	}
	w.Flush()
	if !notified(ch, time.Second) {
		t.Fatal("waiter armed before a batched replay was not woken")
	}
	got, next := h.m.TraceSince(tail)
	if len(got) != 16 || next != tail+16 {
		t.Fatalf("replay appended %d entries (tail %d → %d), want 16 consecutive", len(got), tail, next)
	}
	for i, e := range got {
		if e.Seq != tail+uint64(i)+1 {
			t.Fatalf("replayed entry %d has seq %d, want %d", i, e.Seq, tail+uint64(i)+1)
		}
	}

	// A since the ring has passed: closed at once, nothing armed.
	if !notified(h.m.TraceNotify(tail), 0) {
		t.Fatal("TraceNotify(since < tail) is not already closed")
	}
	if r.notify != nil {
		t.Fatal("a passed since armed the wakeup channel")
	}
}

// TestConcurrentTraceNotify races long-poll waiters against spooled writers
// whose flushes append in runs: every waiter that arms at the current tail
// must be woken by a later append. Writers never stop while waiters wait, so
// a waiter that times out with the tail past its since lost a wakeup.
func TestConcurrentTraceNotify(t *testing.T) {
	m := NewManager(Options{TraceSize: 512, SpoolSize: 16, Sleep: func(time.Duration) {}})
	var stop atomic.Bool
	var writers, waiters sync.WaitGroup
	for g := 0; g < 3; g++ {
		p, err := m.Create(DefaultRule())
		if err != nil {
			t.Fatal(err)
		}
		m.Activate(p)
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			w := m.NewWorker()
			if err := w.BindDirect(p); err != nil {
				t.Error(err)
				return
			}
			key := ResourceKey(0x100 + g)
			for i := 0; !stop.Load(); i++ {
				w.Update(key, Hold)
				w.Update(key, Unhold)
				if i%64 == 0 {
					time.Sleep(10 * time.Microsecond)
				}
			}
			w.Flush()
		}(g)
	}
	for g := 0; g < 3; g++ {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			for i := 0; i < 200; i++ {
				since := m.trace.seq.Load()
				if !notified(m.TraceNotify(since), 5*time.Second) {
					t.Errorf("waiter at seq %d not woken (tail now %d): lost wakeup", since, m.trace.seq.Load())
					return
				}
			}
		}()
	}
	waiters.Wait()
	stop.Store(true)
	writers.Wait()
}
