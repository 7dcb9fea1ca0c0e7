package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pbox/internal/core"
	"pbox/internal/wire"
)

const (
	feeders     = 2    // feeder connections, one per CPU of the 2-CPU host the workloads were sized on
	framePairs  = 1024 // HOLD/UNHOLD pairs per frame
	tenantKeys  = 16   // private keys per feeder tenant
	regPerFrame = 512  // fleet registrations per setup frame

	// warmup is how long the feeders run before the window opens, so
	// buffers have grown and the spools are in steady state.
	warmup = 300 * time.Millisecond
)

// feeder is one wire connection driving one tenant in a closed loop.
type feeder struct {
	idx   int
	c     *wire.Client
	rng   *rand.Rand
	keys  [tenantKeys]core.ResourceKey
	frame [framePairs]core.ResourceKey // keys of the next frame
	seq   uint64
	sent  int64 // event ops encoded over the connection's life

	lat []time.Duration // barrier round trips inside the window
}

// feederTenant is each connection's own tenant id (ids are per connection).
const feederTenant = 1

// newFeeder dials sys and registers the feeder's own tenant. Its keys are 16
// distinct keys drawn by the seeded RNG from a range no other feeder uses,
// so the feeders never contend and their events stay on the spool fast path.
func newFeeder(sys *system, idx int, seed int64) (*feeder, error) {
	c, err := wire.Dial(sys.addr)
	if err != nil {
		return nil, fmt.Errorf("feeder %d: %w", idx, err)
	}
	f := &feeder{idx: idx, c: c, rng: rand.New(rand.NewSource(seed*7919 + int64(idx)))}
	base := 0x10000 + idx*0x1000
	for i, off := range f.rng.Perm(256)[:tenantKeys] {
		f.keys[i] = core.ResourceKey(base + off)
	}
	c.Register(feederTenant, core.DefaultRule(), feederLabel(idx))
	return f, nil
}

func feederLabel(idx int) string { return fmt.Sprintf("feeder-%d", idx) }

// fleetTenant is the input of one extra fleet tenant: its label and the key
// of its one HOLD/UNHOLD pair.
type fleetTenant struct {
	label string
	key   core.ResourceKey
}

// planFleet draws the n extra fleet tenants from seed, split across the
// feeders. It runs before the heap baseline, so the harness's copy of the
// labels is not counted as memory the system retains.
func planFleet(seed int64, n int) [][]fleetTenant {
	plan := make([][]fleetTenant, feeders)
	for idx := range plan {
		rng := rand.New(rand.NewSource(seed*7919 + int64(idx) + 1<<20))
		k := n / feeders
		if idx < n%feeders {
			k++
		}
		plan[idx] = make([]fleetTenant, k)
		for i := range plan[idx] {
			plan[idx][i] = fleetTenant{
				label: fmt.Sprintf("t%d-%08x", idx, rng.Uint32()),
				key:   core.ResourceKey(0x100000 + rng.Intn(4096)),
			}
		}
	}
	return plan
}

// registerFleet registers the feeder's planned extra tenants through the
// wire. Each runs one activity with one HOLD/UNHOLD pair on its key and is
// then hibernated; a ping closes every frame so setup ends with all of them
// applied.
func (f *feeder) registerFleet(tenants []fleetTenant) error {
	for i, t := range tenants {
		id := uint64(feederTenant + 1 + i)
		f.c.Register(id, core.DefaultRule(), t.label)
		f.c.Activate(id)
		f.c.Select(id)
		f.c.Event(t.key, core.Hold)
		f.c.Event(t.key, core.Unhold)
		f.sent += 2
		f.c.Freeze(id)
		f.c.Hibernate(id)
		if (i+1)%regPerFrame == 0 {
			if err := f.ping(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (f *feeder) ping() error {
	_, err := f.pong()
	return err
}

func (f *feeder) pong() (wire.Pong, error) {
	f.seq++
	return f.c.Ping(f.seq)
}

// sendFrame sends one frame — Activate, 1024 HOLD/UNHOLD pairs on the
// tenant's keys, Freeze, Ping — and waits for the pong. It returns the round
// trip from the first op encoded to the pong. With a tracer it records the
// frame span and its encode and ping children.
func (f *feeder) sendFrame(tr *tracer) (time.Duration, error) {
	for i := range f.frame {
		f.frame[i] = f.keys[f.rng.Intn(tenantKeys)]
	}
	t0 := time.Now()
	f.c.Activate(feederTenant)
	for _, k := range f.frame {
		f.c.Event(k, core.Hold)
		f.c.Event(k, core.Unhold)
	}
	f.c.Freeze(feederTenant)
	t1 := time.Now()
	f.sent += 2 * framePairs
	err := f.ping()
	t2 := time.Now()
	if tr != nil {
		tr.encode.calls.Add(2 * framePairs)
		tr.encode.ns.Add(int64(t1.Sub(t0)))
		id := tr.newID()
		tr.record(span{ID: tr.newID(), Parent: id, Req: id, Name: "wire.encode", Start: tr.at(t0), End: tr.at(t1),
			Calls: 2 * framePairs, CallNs: int64(t1.Sub(t0))})
		tr.record(span{ID: tr.newID(), Parent: id, Req: id, Name: "wire.ping", Start: tr.at(t1), End: tr.at(t2)})
		tr.record(span{ID: id, Req: id, Name: "wire.frame", Start: tr.at(t0), End: tr.at(t2)})
	}
	return t2.Sub(t0), err
}

// wireRig is a built system with its feeders connected and registered.
type wireRig struct {
	sys     *system
	feeders []*feeder
	plan    [][]fleetTenant // extra tenants, by feeder
	tenants int             // tenants registered through the wire
	regTime time.Duration   // wall time of the registrations
}

// setupWire builds the system, connects the feeders and registers their
// tenants plus the planned extra fleet tenants.
func setupWire(dir string, tr *tracer, seed int64, plan [][]fleetTenant) (*wireRig, error) {
	sys, err := buildSystem(dir, tr)
	if err != nil {
		return nil, err
	}
	r := &wireRig{sys: sys, plan: plan, tenants: feeders}
	for _, p := range plan {
		r.tenants += len(p)
	}
	for i := 0; i < feeders; i++ {
		f, err := newFeeder(sys, i, seed)
		if err != nil {
			r.close()
			return nil, err
		}
		r.feeders = append(r.feeders, f)
	}
	t0 := time.Now()
	err = r.each(func(f *feeder) error {
		if err := f.registerFleet(plan[f.idx]); err != nil {
			return err
		}
		f.c.Select(feederTenant)
		return f.ping()
	})
	r.regTime = time.Since(t0)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("register: %w", err)
	}
	return r, nil
}

func (r *wireRig) close() error {
	for _, f := range r.feeders {
		f.c.Close() // the wire server's teardown reports what matters
	}
	return r.sys.close()
}

// each runs fn for every feeder, each on its own goroutine, and waits.
func (r *wireRig) each(fn func(f *feeder) error) error {
	errs := make([]error, len(r.feeders))
	var wg sync.WaitGroup
	for i, f := range r.feeders {
		wg.Add(1)
		go func(i int, f *feeder) {
			defer wg.Done()
			if err := fn(f); err != nil {
				errs[i] = fmt.Errorf("feeder %d: %w", f.idx, err)
			}
		}(i, f)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// drive runs every feeder's closed loop until deadline, appending each
// frame's round trip to the feeder's lat.
func (r *wireRig) drive(deadline time.Time, tr *tracer) error {
	return r.each(func(f *feeder) error {
		for time.Now().Before(deadline) {
			d, err := f.sendFrame(tr)
			if err != nil {
				return err
			}
			f.lat = append(f.lat, d)
		}
		return nil
	})
}
