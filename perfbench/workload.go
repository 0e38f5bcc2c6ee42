package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"themisio/internal/client"
	"themisio/internal/policy"
)

const (
	kiB = 1 << 10
	miB = 1 << 20
)

// spec is one workload: the fabric it runs on, the jobs and generator
// goroutines that load it, and the closed loop each generator repeats.
type spec struct {
	name    string
	servers int
	opDelay time.Duration
	// capacity is each server's store size. The store preallocates it
	// and resident memory grows as extents are first touched, so it is
	// sized just above the workload's live data: resident memory then
	// reaches its plateau during warm-up.
	capacity int64
	policy   policy.Policy
	jobs     []policy.JobInfo
	opts     client.Options
	gens     int // generator goroutines per job, all sharing the job's client
	payload  int // bytes per write call
	rpcBytes int // payload of one data RPC on the wire, for the codec replay
	poolSize int // seeded payload bytes the writes are drawn from
	// gated names the job that follows the seeded on/off schedule.
	gated string
	loop  func(g *gen) error
}

// stripeUnit is the stripe unit the workload's files are created with.
func (w *spec) stripeUnit() int64 {
	if w.opts.StripeUnit > 0 {
		return w.opts.StripeUnit
	}
	return client.DefaultStripeUnit
}

// workloads lists the benchmark's workloads by name.
var workloads = map[string]*spec{
	"stripe-rw": {
		name: "stripe-rw", servers: 2, capacity: 64 * miB,
		policy: policy.SizeFair, jobs: []policy.JobInfo{jobInfo("big", 3)},
		opts: client.Options{Stripes: 2, StripeUnit: 256 * kiB},
		gens: 1, payload: 8 * miB, rpcBytes: 512 * kiB, poolSize: 12 * miB,
		loop: stripeLoop,
	},
	// Eight small-ops calls in flight keep both cores busy; with two,
	// the vCPUs idle between round trips and the figures follow how
	// fast the host wakes them.
	"small-ops": {
		name: "small-ops", servers: 2, capacity: 32 * miB,
		policy: policy.SizeFair, jobs: []policy.JobInfo{jobInfo("big", 3)},
		gens: 8, payload: 4 * kiB, rpcBytes: 4 * kiB, poolSize: 1 * miB,
		loop: smallLoop,
	},
	"fair-share": {
		name: "fair-share", servers: 1, opDelay: time.Millisecond, capacity: 160 * miB,
		policy: policy.SizeFair, jobs: []policy.JobInfo{jobInfo("big", 3), jobInfo("small", 1)},
		gens: 16, payload: 1 * miB, rpcBytes: 1 * miB, poolSize: 4 * miB,
		gated: "small", loop: fairLoop,
	},
}

// workloadNames is the order the benchmark documents its workloads in.
var workloadNames = []string{"stripe-rw", "small-ops", "fair-share"}

// fairCyclesPerFile is how many write/read-back cycles a fair-share
// generator runs on one file before replacing it: few enough that the
// file stays small, many enough that metadata calls are rare.
const fairCyclesPerFile = 4

// call kinds, for latency and per-kind accounting.
const (
	kWrite = iota
	kRead
	kMeta
	numKinds
)

var kindNames = [numKinds]string{"write", "read", "meta"}

// errMismatch marks a read whose bytes differ from what was written.
var errMismatch = errors.New("read-back mismatch")

// verify compares read-back bytes with the payload that was written.
func verify(got, want []byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %d bytes, want %d", errMismatch, len(got), len(want))
	}
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("%w: first bad byte at %d", errMismatch, i)
			}
		}
	}
	return nil
}

// gen is one closed-loop generator goroutine: it waits for each call to
// return before issuing the next.
type gen struct {
	r      *run
	jobIdx int
	idx    int
	c      *client.Client
	plan   *genPlan
	rec    recorder
	got    []byte
	// turn, when set, gates each cycle: the fair-share small job's
	// on/off schedule.
	turn *gate
	// loopID is the request ID of the current loop iteration's spans.
	loopID uint64
}

// call runs one client call, times it, and records it if it completed
// inside the measured window. n is the call's user bytes.
func (g *gen) call(kind int, name string, n int64, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	g.rec.attempted++
	if kind == kMeta && name != "close" {
		g.r.metaCalls[g.jobIdx].Add(1)
	}
	if err != nil {
		g.fail(fmt.Errorf("%s: %w", name, err))
		return err
	}
	if kind != kMeta {
		g.r.ackedTotal[g.jobIdx].Add(n)
	}
	if g.r.phase.Load() != phaseMeasure {
		return nil
	}
	g.r.tl.add(kind, end.Sub(g.r.t0), end.Sub(start), n)
	g.r.acked[g.jobIdx].add(end.Sub(g.r.t0), n)
	if g.r.tr != nil {
		g.rec.spans = g.r.tr.child(g.rec.spans, g.loopID, name, start, end)
	}
	return nil
}

// fail counts a failed or mis-verified call.
func (g *gen) fail(err error) {
	g.rec.failed++
	g.r.noteErr(err)
}

// readBack seeks to off, reads len(want) bytes and verifies them.
func (g *gen) readBack(f *client.File, off int64, want []byte) error {
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		g.fail(fmt.Errorf("seek: %w", err))
		return err
	}
	got := g.got[:len(want)]
	if err := g.call(kRead, "read", int64(len(want)), func() error {
		_, err := io.ReadFull(f, got)
		return err
	}); err != nil {
		return err
	}
	if err := verify(got, want); err != nil {
		g.fail(fmt.Errorf("%s: %w", f.Path(), err))
		return err
	}
	return nil
}

func (g *gen) write(f *client.File, data []byte) error {
	return g.call(kWrite, "write", int64(len(data)), func() error {
		n, err := f.Write(data)
		if err == nil && n != len(data) {
			err = fmt.Errorf("short write %d of %d", n, len(data))
		}
		return err
	})
}

func (g *gen) open(path string) (*client.File, error) {
	var f *client.File
	err := g.call(kMeta, "open", 0, func() (err error) {
		f, err = g.c.Open(path, true)
		return err
	})
	return f, err
}

// closeUnlink closes f and removes its file.
func (g *gen) closeUnlink(f *client.File) error {
	if err := g.call(kMeta, "close", 0, f.Close); err != nil {
		return err
	}
	return g.call(kMeta, "unlink", 0, func() error { return g.c.Unlink(f.Path()) })
}

// stripeLoop is one stripe-rw iteration: create, write the whole
// payload, read it back, verify, close, unlink.
func stripeLoop(g *gen) error {
	w := g.r.w
	f, err := g.open(g.plan.path())
	if err != nil {
		return err
	}
	data := g.plan.data(g.r.pool, w.payload)
	if err := g.write(f, data); err != nil {
		return err
	}
	if err := g.readBack(f, 0, data); err != nil {
		return err
	}
	return g.closeUnlink(f)
}

// smallLoop is one small-ops iteration: create, 4 KiB write, stat,
// 4 KiB read with verify, close, unlink.
func smallLoop(g *gen) error {
	w := g.r.w
	f, err := g.open(g.plan.path())
	if err != nil {
		return err
	}
	data := g.plan.data(g.r.pool, w.payload)
	if err := g.write(f, data); err != nil {
		return err
	}
	var size int64
	var isDir bool
	if err := g.call(kMeta, "stat", 0, func() (err error) {
		size, isDir, err = g.c.Stat(f.Path())
		return err
	}); err != nil {
		return err
	}
	if size != int64(len(data)) || isDir {
		err := fmt.Errorf("stat %s: size %d dir %v, want %d", f.Path(), size, isDir, len(data))
		g.fail(err)
		return err
	}
	if err := g.readBack(f, 0, data); err != nil {
		return err
	}
	return g.closeUnlink(f)
}

// fairLoop is one fair-share file: fairCyclesPerFile cycles of a 1 MiB
// append and its verified read-back, then close and unlink. The small
// job's generators wait for their turn before each cycle.
func fairLoop(g *gen) error {
	w := g.r.w
	f, err := g.open(g.plan.path())
	if err != nil {
		return err
	}
	for k := 0; k < fairCyclesPerFile; k++ {
		if g.turn != nil && !g.turn.wait(g.r.stop) {
			break
		}
		if g.r.phase.Load() == phaseStop {
			break
		}
		data := g.plan.data(g.r.pool, w.payload)
		if err := g.write(f, data); err != nil {
			return err
		}
		if err := g.readBack(f, int64(k)*int64(w.payload), data); err != nil {
			return err
		}
	}
	return g.closeUnlink(f)
}

// maxGenFailures stops a generator whose calls keep failing, so a
// broken fabric ends the run instead of spinning.
const maxGenFailures = 100

// runGen repeats the workload loop until the run stops.
func (g *gen) runGen(wg *sync.WaitGroup) {
	defer wg.Done()
	for g.r.phase.Load() != phaseStop && g.rec.failed < maxGenFailures {
		start := time.Now()
		g.loopID = g.r.tr.nextID()
		err := g.r.w.loop(g)
		if err == nil && g.r.tr != nil && g.r.phase.Load() == phaseMeasure {
			g.rec.spans = g.r.tr.root(g.rec.spans, g.loopID, "loop", start, time.Now())
		}
	}
}

// gate is the small job's on/off switch: wait blocks while it is off.
type gate struct {
	mu   sync.Mutex
	on   bool
	wake chan struct{} // closed (and replaced) when the gate opens
}

func newGate() *gate { return &gate{on: true, wake: make(chan struct{})} }

func (t *gate) set(on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if on && !t.on {
		close(t.wake)
		t.wake = make(chan struct{})
	}
	t.on = on
}

// wait returns true once the gate is open, false if stop closes first.
func (t *gate) wait(stop <-chan struct{}) bool {
	for {
		t.mu.Lock()
		on, wake := t.on, t.wake
		t.mu.Unlock()
		if on {
			return true
		}
		select {
		case <-wake:
		case <-stop:
			return false
		}
	}
}

// bins accumulates acked bytes by completion time in fixed-width bins
// over the measured window.
type bins struct {
	width time.Duration
	b     []atomic.Int64
}

func newBins(window, width time.Duration) *bins {
	return &bins{width: width, b: make([]atomic.Int64, int(window/width)+2)}
}

func (s *bins) add(at time.Duration, n int64) {
	if i := int(at / s.width); i >= 0 && i < len(s.b) {
		s.b[i].Add(n)
	}
}

// sum totals the bins that lie wholly inside [from, to).
func (s *bins) sum(from, to time.Duration) int64 {
	var t int64
	for i := int((from + s.width - 1) / s.width); i < len(s.b) && time.Duration(i+1)*s.width <= to; i++ {
		t += s.b[i].Load()
	}
	return t
}

// span returns the duration the bins wholly inside [from, to) cover.
func (s *bins) span(from, to time.Duration) time.Duration {
	lo := (from + s.width - 1) / s.width
	hi := to / s.width
	if hi <= lo {
		return 0
	}
	return (hi - lo) * s.width
}
