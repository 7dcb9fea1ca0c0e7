package core

import "time"

// Observer receives live notifications of manager activity: pBox lifecycle,
// state events, detection verdicts, penalty actions, and served penalty
// durations. It is the hook layer the telemetry subsystem
// (internal/telemetry) builds on; the paper notes (Section 8) that the pBox
// event stream doubles as a diagnosis aid, and these callbacks are that
// stream surfaced programmatically rather than via post-hoc trace dumps.
//
// All callbacks except PenaltyServed are invoked synchronously while manager
// locks are held (the calling pBox's mutex, and on verdict callbacks the
// shard and verdict locks too; a state event replayed from a worker spool
// may also arrive under the shard lock of the replay's current run — see
// DESIGN.md §8, §10), so they observe a
// consistent per-pBox ordering: PBoxCreated precedes every other callback
// for an id, nothing follows PBoxReleased for it, and a PenaltyAction is
// always preceded by its Detection. In exchange, implementations must be
// fast, must not block, and must not call back into the Manager (doing so
// deadlocks) — the one exception is ResourceName, which uses a dedicated
// per-shard name lock precisely so observers can resolve resource names for
// labels. Counter bumps and other atomic updates are the intended
// use. PenaltyServed is invoked on the penalized pBox's own goroutine after
// the delay completes, outside the lock.
//
// An Observer that additionally implements AttributionObserver receives the
// per-(culprit, victim, resource) attribution stream as well.
//
// A nil Observer (the default) is checked before every callback site, so the
// disabled path costs one predictable branch and zero allocations — see
// BenchmarkObserverDisabled.
type Observer interface {
	// PBoxCreated fires when create_pbox succeeds.
	PBoxCreated(id int, rule IsolationRule)
	// PBoxReleased fires when release_pbox destroys the pBox.
	PBoxReleased(id int)
	// StateEvent fires for every accepted update_pbox call (after the
	// EventFilter, only while the pBox is active).
	StateEvent(pboxID int, key ResourceKey, ev EventType)
	// ActivityEnd fires at freeze_pbox with the finished activity's
	// deferring and execution time.
	ActivityEnd(pboxID int, deferNs, execNs int64)
	// Detection fires whenever Algorithm 1 or the pBox-level monitor
	// reaches a verdict that noisy interferes with victim on key, with the
	// projected interference level that crossed the goal. It fires even
	// when the subsequent action is suppressed (pending penalty, cooldown).
	Detection(noisyID, victimID int, key ResourceKey, projected float64)
	// PenaltyAction fires when take_action schedules a penalty of the
	// given length on noisy, chosen by policy.
	PenaltyAction(noisyID, victimID int, key ResourceKey, policy PolicyKind, length time.Duration)
	// PenaltyServed fires after a penalty delay of length d has been
	// slept on the pBox's goroutine (shared-thread requeue penalties are
	// not reported here; they surface through Gate/ErrPenalized).
	PenaltyServed(pboxID int, d time.Duration)
}

// EventTimeObserver is an optional extension for observers that record event
// timestamps (the flight recorder, the capture recorder). With the two-tier
// ingestion path (DESIGN.md §10) a spooled event is delivered to the observer
// at flush time, which can lag the event by the spool's fill interval; an
// observer stamping its own clock at callback time would record flush time,
// not event time. An Observer that also implements EventTimeObserver receives
// every state event — direct slow-path deliveries and spool replays alike —
// through StateEventAt instead of StateEvent, carrying the manager-clock
// timestamp the event's Algorithm 1 bookkeeping used. That single-timestamp
// property is what makes capture logs replayable: a replay that re-issues the
// event at exactly atNs reproduces the manager's arithmetic bit for bit
// (internal/capture builds on this). The same locking and no-reentry rules
// as StateEvent apply.
type EventTimeObserver interface {
	Observer
	// StateEventAt is StateEvent carrying the manager-clock nanosecond
	// timestamp the event was (or is being) accounted at: issue time for
	// direct deliveries, recorded event time for spool replays.
	StateEventAt(pboxID int, key ResourceKey, ev EventType, atNs int64)
}

// LifecycleObserver is an optional extension for observers that need
// manager-clock timestamps of activity-window boundaries and the
// shared-thread marking — together with EventTimeObserver it makes the
// callback stream complete enough to drive an offline replay
// (internal/capture). PBoxActivated and PBoxFrozen fire while the pBox's
// mutex is held (same rules as StateEvent: fast, no blocking, no manager
// re-entry); PBoxSharedChanged fires under the pBox's penalty lock, a §8
// leaf, so the same no-reentry rule applies.
type LifecycleObserver interface {
	Observer
	// PBoxActivated fires inside activate_pbox with the manager-clock
	// timestamp stored as the activity's start (after any pending penalty
	// from the previous activity has been served).
	PBoxActivated(pboxID int, atNs int64)
	// PBoxFrozen fires inside freeze_pbox with the manager-clock timestamp
	// that closes the activity window; the matching ActivityEnd follows it.
	PBoxFrozen(pboxID int, atNs int64)
	// PBoxSharedChanged fires when the pBox's shared-thread marking flips
	// (MarkShared, SetShared, or a worker bind with a different flag).
	PBoxSharedChanged(pboxID int, shared bool)
}
