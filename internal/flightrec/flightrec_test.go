package flightrec

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbox/internal/core"
)

// newWorld builds a fake-clock manager observed by a fresh Recorder and
// returns both plus the clock-advance function. The clock is atomic: the
// recorder's writer goroutine reads it (detection captures stamp snapshot
// provenance) while the test goroutine advances it.
func newWorld(t *testing.T, cfg Config) (*core.Manager, *Recorder, func(time.Duration)) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	rec := New(cfg)
	t.Cleanup(rec.Close)
	var now atomic.Int64
	opts := core.Options{
		Observer:    rec,
		Attribution: true,
		Now:         now.Load,
		Sleep:       func(d time.Duration) { now.Add(int64(d)) },
		MinPenalty:  10 * time.Microsecond,
		MaxPenalty:  100 * time.Millisecond,
	}
	m := core.NewManager(opts)
	rec.AttachManager(m)
	return m, rec, func(d time.Duration) { now.Add(int64(d)) }
}

// newPair creates a labeled noisy/victim pBox pair with a 0.5 goal.
func newPair(m *core.Manager, noisyLabel, victimLabel string) (noisy, victim *core.PBox) {
	rule := core.DefaultRule()
	rule.Level = 0.5
	noisy, _ = m.Create(rule)
	m.SetLabel(noisy, noisyLabel)
	victim, _ = m.Create(rule)
	m.SetLabel(victim, victimLabel)
	return noisy, victim
}

// driveRound runs one noisy-blocks-victim round that ends in a verdict.
func driveRound(m *core.Manager, advance func(time.Duration), key core.ResourceKey, noisy, victim *core.PBox) {
	m.Activate(noisy)
	m.Activate(victim)
	m.Update(noisy, key, core.Hold)
	m.Update(victim, key, core.Prepare)
	advance(5 * time.Millisecond)
	m.Update(noisy, key, core.Unhold)
	m.Update(victim, key, core.Enter)
	m.Freeze(victim)
}

// driveIncident runs one verdict round on a freshly created pair.
func driveIncident(m *core.Manager, advance func(time.Duration), key core.ResourceKey) {
	noisy, victim := newPair(m, "noisy", "victim")
	driveRound(m, advance, key, noisy, victim)
}

func TestDetectionCaptureWritesBundle(t *testing.T) {
	m, rec, advance := newWorld(t, Config{Cooldown: time.Millisecond})
	key := core.ResourceKey(0x7)
	m.NameResource(key, "row_lock")
	driveIncident(m, advance, key)
	rec.Close() // drain the writer

	ids, err := rec.Incidents()
	if err != nil || len(ids) == 0 {
		t.Fatalf("no incident bundles written (ids=%v, err=%v)", ids, err)
	}
	inc, err := rec.Incident(ids[0])
	if err != nil {
		t.Fatalf("load incident %s: %v", ids[0], err)
	}
	if inc.Trigger != "detection" {
		t.Fatalf("trigger = %q, want detection", inc.Trigger)
	}
	if inc.CulpritLabel != "noisy" || inc.VictimLabel != "victim" {
		t.Fatalf("bundle blames %q → %q, want noisy → victim", inc.CulpritLabel, inc.VictimLabel)
	}
	if inc.Resource != "row_lock" {
		t.Fatalf("resource = %q, want row_lock", inc.Resource)
	}
	if inc.ProjectedLevel <= inc.Goal || inc.Goal != 0.5 {
		t.Fatalf("projected %v vs goal %v: verdict inputs missing", inc.ProjectedLevel, inc.Goal)
	}
	if inc.ProjectedSpeedup <= 1 {
		t.Fatalf("projected speedup = %v, want > 1", inc.ProjectedSpeedup)
	}
	if inc.PenaltyPolicy == "" || inc.PenaltyLength == "" {
		t.Fatalf("bundle missing penalty decision: %+v", inc)
	}
	if len(inc.Events) == 0 || len(inc.PBoxes) == 0 || len(inc.Attribution) == 0 {
		t.Fatalf("bundle missing sections: events=%d pboxes=%d attribution=%d",
			len(inc.Events), len(inc.PBoxes), len(inc.Attribution))
	}
	var sawDetection, sawNamed bool
	for _, e := range inc.Events {
		if e.Kind == "detection" {
			sawDetection = true
		}
		if e.Name == "row_lock" {
			sawNamed = true
		}
	}
	if !sawDetection || !sawNamed {
		t.Fatalf("events missing detection (%v) or resource name (%v)", sawDetection, sawNamed)
	}
	top := inc.Attribution[0]
	if top.CulpritLabel != "noisy" {
		t.Fatalf("attribution top culprit = %q, want noisy", top.CulpritLabel)
	}
	if d, err := time.ParseDuration(top.Blocked); err != nil || d <= 0 {
		t.Fatalf("attribution blocked %q not a positive duration (%v)", top.Blocked, err)
	}
}

// stubCapturePosition stands in for a capture.Recorder.
type stubCapturePosition struct{}

func (stubCapturePosition) Position() (string, int64, int) {
	return "seg-000003.pblog", 4096, 2
}

// TestBundleReferencesCapturePosition checks AttachCapture stamps the
// capture-log position into verdict bundles.
func TestBundleReferencesCapturePosition(t *testing.T) {
	m, rec, advance := newWorld(t, Config{Cooldown: time.Millisecond})
	rec.AttachCapture(stubCapturePosition{})
	driveIncident(m, advance, core.ResourceKey(0x7))
	rec.Close()

	ids, err := rec.Incidents()
	if err != nil || len(ids) == 0 {
		t.Fatalf("no incident bundles written (ids=%v, err=%v)", ids, err)
	}
	inc, err := rec.Incident(ids[0])
	if err != nil {
		t.Fatalf("load incident: %v", err)
	}
	if inc.CaptureSegment != "seg-000003.pblog" || inc.CaptureOffset != 4096 || inc.CaptureQueued != 2 {
		t.Fatalf("bundle capture reference = %q @%d (queued %d), want seg-000003.pblog @4096 (queued 2)",
			inc.CaptureSegment, inc.CaptureOffset, inc.CaptureQueued)
	}
}

func TestCooldownLimitsCaptures(t *testing.T) {
	m, rec, advance := newWorld(t, Config{Cooldown: time.Hour})
	key := core.ResourceKey(0x8)
	noisy, victim := newPair(m, "noisy", "victim")
	for i := 0; i < 5; i++ {
		driveRound(m, advance, key, noisy, victim)
	}
	rec.Close()
	ids, _ := rec.Incidents()
	if len(ids) != 1 {
		t.Fatalf("%d bundles written under a 1h cooldown, want 1", len(ids))
	}
}

// TestCooldownIsPerCulprit: a chatty culprit inside its cooldown window must
// not suppress the first capture of a different culprit.
func TestCooldownIsPerCulprit(t *testing.T) {
	m, rec, advance := newWorld(t, Config{Cooldown: time.Hour})
	key := core.ResourceKey(0x8)
	chatty, victimA := newPair(m, "chatty", "victim-a")
	for i := 0; i < 3; i++ {
		driveRound(m, advance, key, chatty, victimA)
	}
	rare, victimB := newPair(m, "rare", "victim-b")
	driveRound(m, advance, key, rare, victimB)
	rec.Close()

	ids, _ := rec.Incidents()
	if len(ids) != 2 {
		t.Fatalf("%d bundles written, want 2 (one per culprit)", len(ids))
	}
	var culprits []string
	for _, id := range ids {
		inc, err := rec.Incident(id)
		if err != nil {
			t.Fatalf("load %s: %v", id, err)
		}
		culprits = append(culprits, inc.CulpritLabel)
	}
	if culprits[0] != "chatty" || culprits[1] != "rare" {
		t.Fatalf("bundle culprits = %v, want [chatty rare]", culprits)
	}
}

func TestManualDump(t *testing.T) {
	m, rec, advance := newWorld(t, Config{})
	key := core.ResourceKey(0x9)
	m.NameResource(key, "queue")
	driveIncident(m, advance, key)

	id, err := rec.Dump("operator paged on p95 burn", 5*time.Second)
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	inc, err := rec.Incident(id)
	if err != nil {
		t.Fatalf("load manual dump %s: %v", id, err)
	}
	if inc.Trigger != "manual" || !strings.Contains(inc.Reason, "paged") {
		t.Fatalf("manual dump trigger=%q reason=%q", inc.Trigger, inc.Reason)
	}
	if len(inc.Events) == 0 || len(inc.PBoxes) == 0 {
		t.Fatalf("manual dump missing sections: events=%d pboxes=%d", len(inc.Events), len(inc.PBoxes))
	}
}

func TestRetentionPrunesOldest(t *testing.T) {
	_, rec, _ := newWorld(t, Config{Retention: 2})
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := rec.Dump("fill", 5*time.Second)
		if err != nil {
			t.Fatalf("dump %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	kept, err := rec.Incidents()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(kept) != 2 {
		t.Fatalf("retention kept %d bundles, want 2 (%v)", len(kept), kept)
	}
	if kept[0] != ids[3] || kept[1] != ids[4] {
		t.Fatalf("retention kept %v, want the newest two of %v", kept, ids)
	}
}

func TestReadIncidentRejectsPathEscape(t *testing.T) {
	for _, id := range []string{"../etc/passwd", "a/b", `a\b`} {
		if _, err := ReadIncident(t.TempDir(), id); err == nil {
			t.Fatalf("ReadIncident accepted malicious id %q", id)
		}
	}
}

func TestDumpAfterCloseFails(t *testing.T) {
	_, rec, _ := newWorld(t, Config{})
	rec.Close()
	if _, err := rec.Dump("late", time.Second); err == nil {
		t.Fatal("Dump after Close should fail")
	}
	rec.Close() // double Close must not panic
}

// TestRecordPathAllocFree is the flight-recorder half of the hook-path
// discipline: recording an event into the ring — timed state events before
// and after AttachManager included — and a verdict arriving while the
// capture cooldown is active, allocate nothing.
func TestRecordPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	rec := New(Config{Dir: t.TempDir(), Cooldown: time.Hour})
	defer rec.Close()
	key := core.ResourceKey(0x42)
	// Prime: consume the one capture the cooldown allows.
	rec.Detection(1, 2, key, 0.9)

	if allocs := testing.AllocsPerRun(1000, func() {
		rec.StateEvent(1, key, core.Prepare)
	}); allocs != 0 {
		t.Fatalf("StateEvent record allocates %.2f objects per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		rec.StateEventAt(1, key, core.Hold, 7)
	}); allocs != 0 {
		t.Fatalf("StateEventAt record (no manager) allocates %.2f objects per op, want 0", allocs)
	}
	rec.AttachManager(core.NewManager(core.Options{}))
	if allocs := testing.AllocsPerRun(1000, func() {
		rec.StateEventAt(1, key, core.Hold, 7)
	}); allocs != 0 {
		t.Fatalf("StateEventAt record allocates %.2f objects per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		rec.Detection(1, 2, key, 0.9)
	}); allocs != 0 {
		t.Fatalf("cooled-down Detection allocates %.2f objects per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		rec.Blocked(1, 2, key, 1000)
	}); allocs != 0 {
		t.Fatalf("Blocked record allocates %.2f objects per op, want 0", allocs)
	}
}

// TestPreciseDumpSeesSpooledEvents pins the one consumer that keeps the
// exact flush-on-read path: a manual Dump serves the cached epoch snapshot
// (spooled events invisible, provenance recorded), while DumpPrecise sweeps
// the spools and reflects events no published view has seen yet.
func TestPreciseDumpSeesSpooledEvents(t *testing.T) {
	m, rec, _ := newWorld(t, Config{})
	rule := core.DefaultRule()
	p, err := m.Create(rule)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	m.Activate(p)
	w := m.NewWorker()
	if err := w.BindDirect(p); err != nil {
		t.Fatalf("BindDirect: %v", err)
	}
	key := core.ResourceKey(0x500)
	m.NameResource(key, "spooled_lock")

	v := m.RefreshStatusView() // publish a view BEFORE the spooled event
	w.Update(key, core.Hold)   // Tier A: sits in the worker spool

	cachedID, err := rec.Dump("cached capture", 5*time.Second)
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	cached, err := rec.Incident(cachedID)
	if err != nil {
		t.Fatalf("load %s: %v", cachedID, err)
	}
	if cached.Precise {
		t.Fatal("plain Dump marked precise")
	}
	if cached.SnapshotEpoch != v.Epoch {
		t.Fatalf("cached dump epoch = %d, want published epoch %d", cached.SnapshotEpoch, v.Epoch)
	}
	for _, res := range cached.Resources {
		if res.Key == uint64(key) && res.Holders > 0 {
			t.Fatalf("cached dump sees the spooled hold: %+v", res)
		}
	}

	preciseID, err := rec.DumpPrecise("exact capture", 5*time.Second)
	if err != nil {
		t.Fatalf("DumpPrecise: %v", err)
	}
	precise, err := rec.Incident(preciseID)
	if err != nil {
		t.Fatalf("load %s: %v", preciseID, err)
	}
	if !precise.Precise || precise.SnapshotEpoch != 0 {
		t.Fatalf("precise dump provenance wrong: precise=%v epoch=%d", precise.Precise, precise.SnapshotEpoch)
	}
	var found bool
	for _, res := range precise.Resources {
		if res.Key == uint64(key) && res.Holders == 1 && res.Name == "spooled_lock" {
			found = true
		}
	}
	if !found {
		t.Fatalf("precise dump missed the spooled hold: %+v", precise.Resources)
	}
}

// TestBundleEncodingRoundTrip: a bundle written with its events streamed one
// at a time decodes to an Incident deep-equal to the one built, and its bytes
// are exactly json.MarshalIndent's — with events, and with none.
func TestBundleEncodingRoundTrip(t *testing.T) {
	full := Incident{
		ID:             "20260101T000000-0001",
		CapturedAt:     "2026-01-01T00:00:00Z",
		Trigger:        "detection",
		CulpritID:      1,
		CulpritLabel:   `noisy "<bg>"`,
		VictimID:       2,
		VictimLabel:    "victimé",
		Key:            0xbeef,
		Resource:       `buf"pool`,
		ProjectedLevel: 1.25,
		Goal:           0.5,
		PenaltyPolicy:  "initial",
		PenaltyLength:  "1ms",
		SnapshotEpoch:  7,
		SnapshotAge:    "3ms",
		Events: []Event{
			{Seq: 1, At: "t1", Kind: "created", PBox: 1},
			{Seq: 2, At: "t2", EventAt: "5µs", Kind: "state", State: "HOLD", PBox: 1, Key: 0xbeef, Name: `"events": [`},
			{Seq: 3, At: "t3", Kind: "action", PBox: 1, Victim: 2, Key: 0xbeef, Extra: "1ms", Policy: "initial", Level: 1.25},
		},
		PBoxes:             []PBoxInfo{{ID: 1, Label: "noisy", State: "active", Goal: 0.5, TotalDefer: "0s", TotalExec: "1ms", PenaltyServed: "0s"}},
		Resources:          []ResourceInfo{{Key: 0xbeef, Name: "bufpool", Waiters: 1, Holders: 1}},
		Attribution:        []AttributionInfo{{CulpritID: 1, VictimID: 2, Key: 0xbeef, Blocked: "5ms", Detections: 1, Actions: 1, PenaltyScheduled: "1ms", PenaltyServed: "0s"}},
		AttributionDropped: 3,
	}
	empty := Incident{ID: "20260101T000000-0002", Trigger: "manual", Reason: "no events"}
	dir := t.TempDir()
	rec := New(Config{Dir: dir})
	t.Cleanup(rec.Close)
	for _, want := range []Incident{full, empty} {
		if err := rec.writeBundle(want); err != nil {
			t.Fatalf("writeBundle(%s): %v", want.ID, err)
		}
		got, err := ReadIncident(dir, want.ID)
		if err != nil {
			t.Fatalf("ReadIncident(%s): %v", want.ID, err)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("bundle %s round trip:\n got  %+v\n want %+v", want.ID, *got, want)
		}
		data, err := os.ReadFile(rec.bundlePath(want.ID))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if ref = append(ref, '\n'); !bytes.Equal(data, ref) {
			t.Fatalf("bundle %s bytes differ from MarshalIndent:\n%s\nwant\n%s", want.ID, data, ref)
		}
	}
}

// TestCaptureRacingClose: verdict captures and manual dumps that arrive
// while Close runs are either queued before the writer drains or refused;
// none is sent on the closed queue (which panics the process). Run under
// -race in CI.
func TestCaptureRacingClose(t *testing.T) {
	dir := t.TempDir()
	key := core.ResourceKey(0x11)
	for i := 0; i < 100; i++ {
		rec := New(Config{Dir: dir, Cooldown: time.Nanosecond, Retention: 4})
		var running, wg sync.WaitGroup
		for g := 1; g <= 2; g++ {
			running.Add(1)
			wg.Add(1)
			go func(culprit int) {
				defer wg.Done()
				running.Done()
				for j := 0; j < 50; j++ {
					rec.Detection(culprit, culprit+10, key, 0.9)
				}
			}(g)
		}
		running.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			running.Done()
			rec.Dump("shutdown race", time.Second)
		}()
		running.Wait()
		rec.Close()
		wg.Wait()
	}
}
