package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"pbox/internal/core"
)

// recConn is a net.Conn that only records what is written to it, so a
// Client can encode frames without a peer.
type recConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *recConn) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *recConn) Close() error                { return nil }

// clientFrames returns the frame payloads a Client emits for script.
func clientFrames(t testing.TB, script func(c *Client)) [][]byte {
	t.Helper()
	rc := &recConn{}
	c, err := NewClient(rc)
	if err != nil {
		t.Fatal(err)
	}
	script(c)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	stream := rc.buf.Bytes()[len(Magic)+1:]
	var frames [][]byte
	for len(stream) > 0 {
		n, k := binary.Uvarint(stream)
		if k <= 0 || uint64(len(stream)-k) < n {
			t.Fatalf("client wrote a malformed frame header")
		}
		frames = append(frames, stream[k:k+int(n)])
		stream = stream[k+int(n):]
	}
	return frames
}

// wantEventOps walks frame with the protocol grammar (protocol.go) and the
// server's per-op checks, independently of applyFrame. It returns how many
// event ops the server must meter — admitted or shed — and whether it must
// reject the frame: event ops count until the first malformed or refused
// op, except those dropped because the selected tenant was released. The
// fuzz clock never moves, so no penalty exists and no select is refused.
func wantEventOps(frame []byte) (n int64, rejected bool) {
	off := 0
	uv := func() (uint64, bool) {
		v, k := binary.Uvarint(frame[off:])
		if k <= 0 {
			return 0, false
		}
		off += k
		return v, true
	}
	live := make(map[uint64]bool)
	var sel uint64
	selected, skip := false, false
	for off < len(frame) {
		op := frame[off]
		off++
		switch {
		case op >= opEventBase && op <= opEventMax:
			_, k := binary.Varint(frame[off:])
			if k <= 0 {
				return n, true
			}
			off += k
			if !skip {
				n++
			}
		case op == opRegister:
			id, ok1 := uv()
			rt, ok2 := uv()
			metric, ok3 := uv()
			bits, ok4 := uv()
			labelLen, ok5 := uv()
			if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || uint64(len(frame)-off) < labelLen {
				return n, true
			}
			off += int(labelLen)
			rule := core.IsolationRule{Type: core.RuleType(rt), Level: math.Float64frombits(bits), Metric: core.Metric(metric)}
			if live[id] || !rule.Valid() {
				return n, true
			}
			live[id] = true
		case op == opRelease || op == opActivate || op == opFreeze || op == opSelect ||
			op == opHibernate || op == opShared:
			id, ok := uv()
			if !ok || !live[id] {
				return n, true
			}
			switch op {
			case opRelease:
				delete(live, id)
				if selected && sel == id {
					selected, skip = false, true
				}
			case opSelect:
				sel, selected, skip = id, true, false
			case opShared:
				if _, ok := uv(); !ok {
					return n, true
				}
			}
		case op == opPing:
			if _, ok := uv(); !ok {
				return n, true
			}
		default:
			return n, true
		}
	}
	return n, false
}

// FuzzApplyFrame feeds arbitrary frame payloads to the server's decoder
// against a real manager: it must never panic, must reject exactly the
// frames the grammar rejects, and must meter every event op it decodes —
// events applied plus events shed equals the event ops decoded. The
// admission buckets are small enough that a long frame sheds on both the
// per-connection and the global bucket. The seeds are frames encoded by
// Client.
func FuzzApplyFrame(f *testing.F) {
	rule := core.DefaultRule()
	seeds := [][]byte{}
	seeds = append(seeds, clientFrames(f, func(c *Client) {
		c.Register(1, rule, "tenant-a")
		c.Activate(1)
		c.Select(1)
		for k := core.ResourceKey(10); k < 14; k++ {
			c.Event(k, core.Prepare)
			c.Event(k, core.Enter)
			c.Event(k, core.Hold)
			c.Event(k, core.Unhold)
		}
		c.Freeze(1)
		c.op(opPing)
		c.u(1)
	})...)
	seeds = append(seeds, clientFrames(f, func(c *Client) {
		c.Register(1, rule, "")
		c.Register(2, rule, "b")
		c.Activate(1)
		c.Activate(2)
		c.Select(2)
		c.SetShared(2, true)
		c.Event(1<<40, core.Hold)
		c.Event(3, core.Unhold)
		c.Release(2) // the selection goes with the tenant: events drop
		c.Event(5, core.Hold)
		c.Select(1)
		c.Event(5, core.Hold)
		c.Event(5, core.Unhold)
		c.Freeze(1)
		c.Hibernate(1)
		c.Release(1)
	})...)
	seeds = append(seeds, clientFrames(f, func(c *Client) {
		c.BatchLimit = 100 // a second frame, its key chain reset
		c.Register(7, rule, "burst")
		c.Activate(7)
		c.Select(7)
		for i := 0; i < 120; i++ {
			c.Event(core.ResourceKey(i%3), core.EventType(2+i%2))
		}
	})...)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) > MaxFrame {
			return // serveConn rejects the length prefix before decoding
		}
		now := func() int64 { return 1 }
		mgr := core.NewManager(core.Options{SpoolSize: 8, Now: now, Sleep: func(time.Duration) {}})
		s := NewServer(mgr, Config{PerConnRate: 1, PerConnBurst: 48, GlobalRate: 1, GlobalBurst: 32, Now: now})
		w := mgr.NewWorker()
		tenants := make(map[uint64]*core.PBox)
		c := connState{bkt: newBucket(s.cfg.PerConnRate, s.cfg.PerConnBurst, now())}
		err := s.applyFrame(frame, w, tenants, &c, bufio.NewWriter(io.Discard))
		want, rejected := wantEventOps(frame)
		if (err != nil) != rejected {
			t.Fatalf("applyFrame error = %v, want rejected = %v", err, rejected)
		}
		st := s.Stats()
		if got := st.Events + st.ShedConn + st.ShedGlobal; got != want {
			t.Fatalf("events %d + shed %d/%d = %d, want %d event ops decoded",
				st.Events, st.ShedConn, st.ShedGlobal, got, want)
		}
		w.Flush()
		for _, p := range tenants {
			mgr.Release(p)
		}
		if mgr.Live() != 0 {
			t.Fatalf("%d pBoxes live after releasing every tenant", mgr.Live())
		}
	})
}
