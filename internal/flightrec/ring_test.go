package flightrec

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"pbox/internal/core"
)

// TestEventSlotSize pins the ring slot at one cache line.
func TestEventSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 64 {
		t.Fatalf("event slot is %d bytes, want <= 64", n)
	}
}

// dumpEvents writes a manual bundle and returns its events.
func dumpEvents(t *testing.T, rec *Recorder) []Event {
	t.Helper()
	id, err := rec.Dump("ring test", 5*time.Second)
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	inc, err := rec.Incident(id)
	if err != nil {
		t.Fatalf("load %s: %v", id, err)
	}
	return inc.Events
}

// TestBundleSeqIncreasesAcrossStripes: events of pBoxes on every stripe,
// recorded interleaved, come out of the bundle in strictly increasing seq
// order with none missing.
func TestBundleSeqIncreasesAcrossStripes(t *testing.T) {
	_, rec, _ := newWorld(t, Config{})
	const pboxes, rounds = 2 * ringStripes, 4
	for r := 0; r < rounds; r++ {
		for id := 1; id <= pboxes; id++ {
			rec.StateEventAt(id, core.ResourceKey(id), core.Hold, int64(r))
		}
	}
	events := dumpEvents(t, rec)
	if len(events) != pboxes*rounds {
		t.Fatalf("bundle holds %d events, want %d", len(events), pboxes*rounds)
	}
	seen := map[int]bool{}
	for i, e := range events {
		if i > 0 && e.Seq <= events[i-1].Seq {
			t.Fatalf("event %d seq %d follows seq %d", i, e.Seq, events[i-1].Seq)
		}
		if want := i%pboxes + 1; e.PBox != want {
			t.Fatalf("event %d is pbox %d, want %d (recording order)", i, e.PBox, want)
		}
		seen[e.PBox&(ringStripes-1)] = true
	}
	if len(seen) != ringStripes {
		t.Fatalf("events cover %d stripes, want %d", len(seen), ringStripes)
	}
}

// TestFloodKeepsOtherStripesHistory: a pBox flooding the recorder with ten
// rings' worth of events evicts only its own stripe; a victim on another
// stripe keeps its history.
func TestFloodKeepsOtherStripesHistory(t *testing.T) {
	const size = 64
	_, rec, _ := newWorld(t, Config{RingSize: size})
	const victim, flooder = 1, 2
	for _, ev := range []core.EventType{core.Prepare, core.Enter, core.Hold} {
		rec.StateEventAt(victim, core.ResourceKey(0x10), ev, 0)
	}
	for i := 0; i < 10*size; i++ {
		rec.StateEventAt(flooder, core.ResourceKey(0x20), core.Hold, int64(i))
	}
	var victims, floods int
	for _, e := range dumpEvents(t, rec) {
		switch e.PBox {
		case victim:
			victims++
		case flooder:
			floods++
		}
	}
	if victims != 3 {
		t.Fatalf("victim kept %d of its 3 events after the flood", victims)
	}
	if floods != size/ringStripes {
		t.Fatalf("flooder kept %d events, want its stripe's %d", floods, size/ringStripes)
	}
}

// TestStateEventTimeFromAnchor: under a fake manager clock, a state event's
// bundle time is the AttachManager anchor plus its manager-clock event time,
// so a spooled event shows when it happened; events delivered before
// AttachManager, and plain StateEvent calls, carry their delivery time.
func TestStateEventTimeFromAnchor(t *testing.T) {
	m, rec, advance := newWorld(t, Config{})
	att := rec.att.Load()
	p, err := m.Create(core.DefaultRule())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	m.Activate(p)
	w := m.NewWorker()
	if err := w.BindDirect(p); err != nil {
		t.Fatalf("BindDirect: %v", err)
	}
	key := core.ResourceKey(0x30)
	advance(5 * time.Millisecond)
	w.Update(key, core.Hold) // spooled: delivered at the flush below
	advance(3 * time.Millisecond)
	w.Update(key, core.Unhold)
	advance(time.Second)
	_ = m.Snapshots() // flush-on-read replays the spool
	before := time.Now()
	rec.StateEvent(p.ID(), key, core.Prepare)

	var timed []Event
	var plain *Event
	events := dumpEvents(t, rec)
	for i, e := range events {
		switch {
		case e.Kind != "state":
		case e.EventAt != "":
			timed = append(timed, e)
		default:
			plain = &events[i]
		}
	}
	if len(timed) != 2 || plain == nil {
		t.Fatalf("bundle has %d timed and plain=%v state events, want 2 and one: %+v", len(timed), plain != nil, events)
	}
	var ats []time.Time
	for _, e := range timed {
		at, err := time.Parse(time.RFC3339Nano, e.At)
		if err != nil {
			t.Fatalf("at %q: %v", e.At, err)
		}
		eventAt, err := time.ParseDuration(e.EventAt)
		if err != nil {
			t.Fatalf("event_at %q: %v", e.EventAt, err)
		}
		if want := time.Unix(0, att.wall+int64(eventAt)-att.mgrNs); !at.Equal(want) {
			t.Fatalf("state event at %v, want anchor + event_at = %v", at, want)
		}
		ats = append(ats, at)
	}
	if d := ats[1].Sub(ats[0]); d != 3*time.Millisecond {
		t.Fatalf("spooled HOLD→UNHOLD renders %v apart, want the 3ms between them", d)
	}
	if at, err := time.Parse(time.RFC3339Nano, plain.At); err != nil || at.Before(before) {
		t.Fatalf("plain StateEvent at %q (%v), want its delivery time (after %v)", plain.At, err, before)
	}

	early := New(Config{Dir: t.TempDir()})
	t.Cleanup(early.Close)
	before = time.Now()
	early.StateEventAt(1, key, core.Hold, 42)
	e := dumpEvents(t, early)[0]
	if at, err := time.Parse(time.RFC3339Nano, e.At); e.EventAt != "" || err != nil || at.Before(before) {
		t.Fatalf("pre-attach state event at=%q event_at=%q, want its delivery time and no event_at", e.At, e.EventAt)
	}
}

// TestRecordingRacesDump: recorders of several pBoxes run while bundles are
// built from the ring. Run under -race in CI.
func TestRecordingRacesDump(t *testing.T) {
	_, rec, _ := newWorld(t, Config{RingSize: 256, Cooldown: time.Hour})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			key := core.ResourceKey(id)
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec.StateEventAt(id, key, core.Hold, i)
				rec.Blocked(id, id+1, key, i)
				rec.Detection(id, id+1, key, 0.9)
			}
		}(g)
	}
	for i := 0; i < 5; i++ {
		events := dumpEvents(t, rec)
		for j := 1; j < len(events); j++ {
			if events[j].Seq <= events[j-1].Seq {
				t.Errorf("dump %d: seq %d follows %d", i, events[j].Seq, events[j-1].Seq)
				break
			}
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkRecorderStateEventAt measures recording one timed state event
// with a manager attached — the flight recorder's share of every event the
// production observer chain delivers — serially and with one pBox per
// goroutine. It fails if the record path allocates.
func BenchmarkRecorderStateEventAt(b *testing.B) {
	rec := New(Config{Dir: b.TempDir()})
	defer rec.Close()
	rec.AttachManager(core.NewManager(core.Options{}))
	const key = core.ResourceKey(0xbeef)
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(1000, func() {
			rec.StateEventAt(1, key, core.Hold, 1)
		}); allocs != 0 {
			b.Fatalf("StateEventAt allocates %.1f objects per op, want 0", allocs)
		}
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.StateEventAt(1, key, core.Hold, int64(i))
		}
	})
	b.Run("parallel", func(b *testing.B) {
		var ids atomic.Int64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			id := int(ids.Add(1))
			var at int64
			for pb.Next() {
				at++
				rec.StateEventAt(id, key, core.Hold, at)
			}
		})
	})
}
