package flightrec

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pbox/internal/core"
)

var (
	errClosed = errors.New("flightrec: recorder closed")
	errBusy   = errors.New("flightrec: writer busy")
	errWrite  = errors.New("flightrec: bundle write failed")
)

// Event is the wire form of one ring entry inside an incident bundle.
type Event struct {
	// Seq is the recording order across all pBoxes; a bundle lists its
	// events by Seq.
	Seq uint64 `json:"seq"`
	// At is the wall-clock time of the event. For a state event delivered
	// with its manager-clock time (EventAt set) it is that event time,
	// rendered through the clock anchor taken at AttachManager, so a
	// spooled event shows when it was issued, not when its batch drained;
	// for every other event it is the delivery time.
	At string `json:"at"`
	// EventAt is the manager-clock offset at which a state event was
	// issued; set when the manager delivered the event with its time.
	EventAt string  `json:"event_at,omitempty"`
	Kind    string  `json:"kind"`
	State   string  `json:"state,omitempty"`
	PBox    int     `json:"pbox"`
	Victim  int     `json:"victim,omitempty"`
	Key     uint64  `json:"key,omitempty"`
	Name    string  `json:"resource,omitempty"`
	Extra   string  `json:"extra,omitempty"`
	Policy  string  `json:"policy,omitempty"`
	Level   float64 `json:"level,omitempty"`
}

// PBoxInfo is the wire form of one pBox snapshot in a bundle: the Algorithm 1
// inputs (defer ratio against the rule's goal) at capture time.
type PBoxInfo struct {
	ID                int     `json:"id"`
	Label             string  `json:"label,omitempty"`
	State             string  `json:"state"`
	Goal              float64 `json:"goal"`
	Activities        int     `json:"activities"`
	TotalDefer        string  `json:"total_defer"`
	TotalExec         string  `json:"total_exec"`
	DeferRatio        float64 `json:"defer_ratio"`
	PenaltiesReceived int     `json:"penalties_received"`
	PenaltyServed     string  `json:"penalty_served"`
}

// ResourceInfo is the wire form of one per-resource contention summary in a
// bundle: who-waits/who-holds counts at capture time.
type ResourceInfo struct {
	Key     uint64 `json:"key"`
	Name    string `json:"resource,omitempty"`
	Waiters int    `json:"waiters,omitempty"`
	Holders int    `json:"holders,omitempty"`
}

// AttributionInfo is the wire form of one ledger record in a bundle.
type AttributionInfo struct {
	CulpritID        int    `json:"culprit_id"`
	CulpritLabel     string `json:"culprit_label,omitempty"`
	VictimID         int    `json:"victim_id"`
	VictimLabel      string `json:"victim_label,omitempty"`
	Key              uint64 `json:"key"`
	Resource         string `json:"resource,omitempty"`
	Blocked          string `json:"blocked"`
	Detections       int64  `json:"detections"`
	Actions          int64  `json:"actions"`
	PenaltyScheduled string `json:"penalty_scheduled"`
	PenaltyServed    string `json:"penalty_served"`
}

// Incident is one frozen bundle: the verdict (or manual dump) that triggered
// it, the culprit/victim pair with the Algorithm 1 inputs behind the verdict,
// the recent event ring, and the attribution matrix at capture time.
type Incident struct {
	ID         string `json:"id"`
	CapturedAt string `json:"captured_at"`
	Trigger    string `json:"trigger"`
	Reason     string `json:"reason,omitempty"`

	CulpritID    int    `json:"culprit_id,omitempty"`
	CulpritLabel string `json:"culprit_label,omitempty"`
	VictimID     int    `json:"victim_id,omitempty"`
	VictimLabel  string `json:"victim_label,omitempty"`
	Key          uint64 `json:"key,omitempty"`
	Resource     string `json:"resource,omitempty"`

	// ProjectedLevel is the interference level tf = td/(te−td) the detector
	// projected for the victim; Goal is the victim rule's isolation level λ.
	// ProjectedSpeedup = (1+ProjectedLevel)/(1+Goal) estimates how much
	// faster the victim's activity would finish if the goal held — the
	// quantity Algorithm 1's verdict asserts is being lost.
	ProjectedLevel   float64 `json:"projected_level,omitempty"`
	Goal             float64 `json:"goal,omitempty"`
	ProjectedSpeedup float64 `json:"projected_speedup,omitempty"`

	// PenaltyPolicy and PenaltyLength describe the action scheduled for the
	// verdict, when one is visible in the event window (a verdict under
	// cooldown or with a pending penalty schedules none).
	PenaltyPolicy string `json:"penalty_policy,omitempty"`
	PenaltyLength string `json:"penalty_length,omitempty"`

	// CaptureSegment/CaptureOffset reference the capture event log
	// (pboxd -record) at bundle-build time: the verdict's records land in
	// the named segment within CaptureQueued records of the offset. Only
	// set when a capture recorder is attached (AttachCapture).
	CaptureSegment string `json:"capture_segment,omitempty"`
	CaptureOffset  int64  `json:"capture_offset,omitempty"`
	CaptureQueued  int    `json:"capture_queued,omitempty"`

	// Snapshot provenance: the epoch and age of the manager view the
	// bundle's state sections were built from. Precise marks a bundle built
	// from the exact flush-on-read Status() (DumpPrecise) — spooled events
	// issued before the dump are guaranteed visible; snapshot-built bundles
	// instead carry the epoch metadata of the view used.
	SnapshotEpoch uint64 `json:"snapshot_epoch,omitempty"`
	SnapshotAge   string `json:"snapshot_age,omitempty"`
	Precise       bool   `json:"precise,omitempty"`

	Events             []Event           `json:"events"`
	PBoxes             []PBoxInfo        `json:"pboxes,omitempty"`
	Resources          []ResourceInfo    `json:"resources,omitempty"`
	Attribution        []AttributionInfo `json:"attribution,omitempty"`
	AttributionDropped int64             `json:"attribution_dropped,omitempty"`
}

// writer is the background goroutine draining capture jobs into bundles.
// Once stop is closed it builds the jobs already queued and exits; a job
// sent after that final drain is never built.
func (r *Recorder) writer() {
	defer close(r.done)
	for {
		select {
		case job := <-r.jobs:
			r.build(job)
		case <-r.stop:
			for {
				select {
				case job := <-r.jobs:
					r.build(job)
				default:
					return
				}
			}
		}
	}
}

// build runs one capture job and answers a manual dump with the incident id
// ("" on failure).
func (r *Recorder) build(job capture) {
	id, err := r.buildAndWrite(job)
	if job.reply != nil {
		if err != nil {
			id = ""
		}
		job.reply <- id
	}
}

// nextID mints a sortable incident id: UTC second timestamp plus a process
// sequence number, so lexical order is chronological order.
func (r *Recorder) nextID(atUnix int64) string {
	r.idMu.Lock()
	r.idSeq++
	seq := r.idSeq
	r.idMu.Unlock()
	return fmt.Sprintf("%s-%04d", time.Unix(0, atUnix).UTC().Format("20060102T150405"), seq)
}

// buildAndWrite assembles the bundle for one capture and persists it. Runs
// on the writer goroutine, outside every manager hook; reading the manager
// state here (not at verdict time) means the bundle also sees the penalty
// action that the verdict scheduled, since that happens under the same
// manager lock hold that queued the job. Detection captures force a
// snapshot refresh (the verdict must be visible); manual dumps take the
// published view unless the job asks for the precise flush-on-read Status.
func (r *Recorder) buildAndWrite(job capture) (string, error) {
	inc := Incident{
		ID:         r.nextID(job.atUnix),
		CapturedAt: time.Unix(0, job.atUnix).UTC().Format(time.RFC3339Nano),
		Trigger:    job.trigger,
		Reason:     job.reason,
	}
	if p, ok := r.capPos.Load().(CapturePosition); ok {
		inc.CaptureSegment, inc.CaptureOffset, inc.CaptureQueued = p.Position()
	}
	att := r.att.Load()
	var mgr *core.Manager
	if att != nil {
		mgr = att.mgr
	}
	if job.trigger == "detection" {
		inc.CulpritID = job.culprit
		inc.VictimID = job.victim
		inc.Key = uint64(job.key)
		inc.ProjectedLevel = job.projected
		if mgr != nil {
			inc.Resource = mgr.ResourceName(job.key)
		}
	}
	var status core.Status
	if mgr != nil {
		switch {
		case job.precise:
			status = mgr.Status()
			inc.Precise = true
		case job.trigger == "detection":
			v := mgr.RefreshStatusView()
			status = v.Status
			inc.SnapshotEpoch = v.Epoch
			inc.SnapshotAge = mgr.ViewAge(v).String()
		default:
			v := mgr.StatusView()
			status = v.Status
			inc.SnapshotEpoch = v.Epoch
			inc.SnapshotAge = mgr.ViewAge(v).String()
		}
		for _, s := range status.Snapshots {
			inc.PBoxes = append(inc.PBoxes, PBoxInfo{
				ID:                s.ID,
				Label:             s.Label,
				State:             s.State.String(),
				Goal:              s.Goal,
				Activities:        s.Activities,
				TotalDefer:        s.TotalDefer.String(),
				TotalExec:         s.TotalExec.String(),
				DeferRatio:        s.InterferenceLevel,
				PenaltiesReceived: s.PenaltiesReceived,
				PenaltyServed:     s.PenaltyTotal.String(),
			})
			if s.ID == inc.VictimID {
				inc.VictimLabel = s.Label
				inc.Goal = s.Goal
			}
			if s.ID == inc.CulpritID {
				inc.CulpritLabel = s.Label
			}
		}
		for _, a := range status.Attribution {
			inc.Attribution = append(inc.Attribution, AttributionInfo{
				CulpritID:        a.CulpritID,
				CulpritLabel:     a.CulpritLabel,
				VictimID:         a.VictimID,
				VictimLabel:      a.VictimLabel,
				Key:              uint64(a.Key),
				Resource:         a.Resource,
				Blocked:          a.Blocked.String(),
				Detections:       a.Detections,
				Actions:          a.Actions,
				PenaltyScheduled: a.PenaltyScheduled.String(),
				PenaltyServed:    a.PenaltyServed.String(),
			})
			// Labels for a culprit/victim already released at capture time
			// survive in the ledger.
			if inc.CulpritLabel == "" && a.CulpritID == inc.CulpritID {
				inc.CulpritLabel = a.CulpritLabel
			}
			if inc.VictimLabel == "" && a.VictimID == inc.VictimID {
				inc.VictimLabel = a.VictimLabel
			}
		}
		for _, res := range status.Resources {
			inc.Resources = append(inc.Resources, ResourceInfo{
				Key:     uint64(res.Key),
				Name:    res.Name,
				Waiters: res.Waiters,
				Holders: res.Holders,
			})
		}
		inc.AttributionDropped = status.AttributionDropped
	}
	if inc.Goal > 0 || inc.ProjectedLevel > 0 {
		inc.ProjectedSpeedup = (1 + inc.ProjectedLevel) / (1 + inc.Goal)
	}

	events := r.ring.tail()
	if att == nil {
		// A manager-clock event in the tail was recorded after the anchor
		// was published; reloading after the tail sees it.
		att = r.att.Load()
	}
	for _, e := range events {
		we := Event{
			Seq:    e.seq,
			Kind:   e.kind.String(),
			PBox:   e.pbox,
			Victim: e.victim,
			Key:    uint64(e.key),
			Level:  e.level,
		}
		at := e.at
		if e.kind == kindStateAt {
			at = att.wall + (e.at - att.mgrNs)
			we.EventAt = time.Duration(e.at).String()
		}
		we.At = time.Unix(0, at).UTC().Format(time.RFC3339Nano)
		if e.kind == KindState || e.kind == kindStateAt {
			we.State = core.EventType(e.state).String()
		}
		if e.kind == KindAction {
			we.Policy = core.PolicyKind(e.policy).String()
		}
		if e.extra != 0 {
			we.Extra = time.Duration(e.extra).String()
		}
		if mgr != nil && e.key != 0 {
			we.Name = mgr.ResourceName(e.key)
		}
		inc.Events = append(inc.Events, we)
		// The action the verdict scheduled, if any, lands in the ring right
		// after the triggering detection (same culprit and victim).
		if job.trigger == "detection" && e.kind == KindAction &&
			e.pbox == job.culprit && e.victim == job.victim && e.key == job.key {
			inc.PenaltyPolicy = core.PolicyKind(e.policy).String()
			inc.PenaltyLength = time.Duration(e.extra).String()
		}
	}

	if err := r.writeBundle(inc); err != nil {
		return "", err
	}
	r.prune()
	return inc.ID, nil
}

// bundlePath returns the on-disk path for an incident id.
func (r *Recorder) bundlePath(id string) string {
	return filepath.Join(r.cfg.Dir, "incident-"+id+".json")
}

// writeBundle persists inc as incident-<id>.json, write-then-rename so a
// reader never sees a torn bundle.
func (r *Recorder) writeBundle(inc Incident) error {
	if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
		return err
	}
	tmp := r.bundlePath(inc.ID) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = encodeIncident(bw, &inc)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, r.bundlePath(inc.ID))
}

// eventsField is where MarshalIndent places the (emptied) event list of a
// bundle; a JSON string cannot contain it unescaped, so its first match is
// the field itself.
var eventsField = []byte(`"events": [`)

// encodeIncident writes inc followed by a newline, byte for byte what
// json.MarshalIndent(inc, "", "  ") produces, but streams the event list —
// the bulk of a bundle — one event at a time. Marshalling the whole bundle
// at once grows encoding/json's pooled buffer to the bundle's size, and the
// pool keeps that buffer alive until a later GC, which on a process that
// rarely collects outlives the capture by far. Write errors on w are sticky:
// they surface from the final WriteByte and the caller's Flush.
func encodeIncident(w *bufio.Writer, inc *Incident) error {
	events := inc.Events
	rest := *inc
	if len(events) > 0 {
		rest.Events = []Event{} // the placeholder the events stream into
	}
	head, err := json.MarshalIndent(&rest, "", "  ")
	if err != nil {
		return err
	}
	if len(events) > 0 {
		i := bytes.Index(head, eventsField)
		if i < 0 {
			return errWrite
		}
		i += len(eventsField)
		w.Write(head[:i])
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("    ", "  ")
		for j := range events {
			buf.Reset()
			if err := enc.Encode(&events[j]); err != nil {
				return err
			}
			if j > 0 {
				w.WriteByte(',')
			}
			w.WriteString("\n    ")
			w.Write(bytes.TrimSuffix(buf.Bytes(), []byte("\n")))
		}
		w.WriteString("\n  ")
		head = head[i:]
	}
	w.Write(head)
	return w.WriteByte('\n')
}

// prune enforces the retention cap, deleting the oldest bundles (ids sort
// chronologically).
func (r *Recorder) prune() {
	ids, err := listIDs(r.cfg.Dir)
	if err != nil || len(ids) <= r.cfg.Retention {
		return
	}
	for _, id := range ids[:len(ids)-r.cfg.Retention] {
		_ = os.Remove(r.bundlePath(id))
	}
}

// listIDs returns the incident ids present in dir, oldest first.
func listIDs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "incident-") && strings.HasSuffix(name, ".json") {
			ids = append(ids, strings.TrimSuffix(strings.TrimPrefix(name, "incident-"), ".json"))
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Incidents lists the bundle ids in the recorder's directory, oldest first.
func (r *Recorder) Incidents() ([]string, error) {
	return listIDs(r.cfg.Dir)
}

// Incident loads one bundle by id.
func (r *Recorder) Incident(id string) (*Incident, error) {
	return ReadIncident(r.cfg.Dir, id)
}

// ReadIncident loads incident-<id>.json from dir. It rejects ids that try to
// escape the directory.
func ReadIncident(dir, id string) (*Incident, error) {
	if strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") {
		return nil, fmt.Errorf("flightrec: invalid incident id %q", id)
	}
	data, err := os.ReadFile(filepath.Join(dir, "incident-"+id+".json"))
	if err != nil {
		return nil, err
	}
	var inc Incident
	if err := json.Unmarshal(data, &inc); err != nil {
		return nil, err
	}
	return &inc, nil
}

// ListIncidents lists bundle ids in dir, oldest first — the directory-level
// twin of Recorder.Incidents for tools that only have the path.
func ListIncidents(dir string) ([]string, error) {
	return listIDs(dir)
}
