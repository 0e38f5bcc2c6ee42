package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"themisio/internal/policy"
	"themisio/internal/sched"
)

const (
	phaseWarm = iota
	phaseMeasure
	phaseStop
)

// binWidth is the resolution of the acked-bytes timeline the fair-share
// windows are cut from.
const binWidth = 10 * time.Millisecond

// metaRPCsPerCall bounds the requests one open, stat or unlink call
// puts through a server's scheduler on a one-server fabric: a stat
// plus the operation itself.
const metaRPCsPerCall = 2

// options are one run's settings.
type options struct {
	seed      int64
	seconds   time.Duration // measured window
	warmup    time.Duration
	setupReps int
	traced    bool
}

// run is the state one workload run shares between its generators and
// the goroutine driving it.
type run struct {
	w    *spec
	o    options
	fab  *fabric
	pool []byte
	tl   *timeline
	tr   *tracer // nil unless traced
	// phase moves warm-up → measure → stop; a call is recorded when it
	// completes in the measure phase.
	phase atomic.Int32
	t0    time.Time // start of the measured window, set before phase moves to measure
	stop  chan struct{}
	gate  *gate // the gated job's on/off switch (fair-share only)
	// acked is each job's acked data bytes by completion time in the
	// measured window; ackedTotal counts the whole run.
	acked      []*bins
	ackedTotal []atomic.Int64
	// metaCalls counts each job's open, stat and unlink calls.
	metaCalls []atomic.Int64

	errMu sync.Mutex
	errs  []string
}

// noteErr keeps the first few failure messages for the report.
func (r *run) noteErr(err error) {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// result is one run's outcome.
type result struct {
	e2e     map[string]float64
	samples map[string]int // sample count behind each latency percentile
	// meanMBps is throughput_MBps as a mean over the steady slices
	// instead of a median: finer-grained, for the tracing overhead.
	meanMBps float64
	layers   map[string]float64
	// attempted and failed count every client call of the run; failed
	// includes calls whose bytes or stat results were wrong.
	attempted, failed int64
	// problems are correctness failures beyond single calls.
	problems []string
	notes    []string
	errs     []string
	spans    []span
}

func (res *result) correct() bool { return res.failed == 0 && len(res.problems) == 0 }

// execute sets the fabric up, runs the workload's generators through a
// warm-up and the measured window, and computes the run's metrics.
func execute(w *spec, o options) (*result, error) {
	pool := newPool(o.seed, w.poolSize)
	fab, setup, converge, err := setUp(w, o.traced, o.setupReps)
	if err != nil {
		return nil, err
	}
	defer fab.close()
	r := &run{w: w, o: o, fab: fab, pool: pool, tl: newTimeline(o.seconds), stop: make(chan struct{}),
		ackedTotal: make([]atomic.Int64, len(w.jobs)), metaCalls: make([]atomic.Int64, len(w.jobs))}
	if o.traced {
		r.tr = newTracer()
	}
	for range w.jobs {
		r.acked = append(r.acked, newBins(o.seconds, binWidth))
	}
	gens := r.startGens()

	time.Sleep(o.warmup)
	var before snapshot
	var pending *pendingSampler
	if o.traced {
		before = takeSnapshot(fab)
		pending = startPendingSampler(fab)
	}
	r.t0 = time.Now()
	r.phase.Store(phaseMeasure)
	segs, residual := r.drive()
	var win window
	var pendingMean float64
	if o.traced {
		win = window{before, takeSnapshot(fab)}
		pendingMean = pending.mean()
	}
	r.phase.Store(phaseStop)
	close(r.stop)
	rec := gens.wait()

	res := &result{attempted: rec.attempted, failed: rec.failed, samples: map[string]int{}, errs: r.errs}
	res.e2e = r.endToEnd(segs, setup, res)
	if w.gated != "" {
		res.problems = append(res.problems, r.conservation()...)
	}
	if o.traced {
		res.layers = layerMetrics(layerInputs{rec: &rec, tl: r.tl, win: win, pendingMean: pendingMean,
			residual: residual, converge: converge, servers: len(fab.servers)})
		res.spans = rec.spans
	}
	return res, nil
}

// genSet is the running generators of a run.
type genSet struct {
	wg   sync.WaitGroup
	gens []*gen
}

func (r *run) startGens() *genSet {
	s := &genSet{}
	for ji, job := range r.w.jobs {
		for gi := 0; gi < r.w.gens; gi++ {
			g := &gen{r: r, jobIdx: ji, idx: len(s.gens), c: r.fab.clients[job.JobID],
				plan: newGenPlan(r.o.seed, job.JobID, gi), got: make([]byte, r.w.payload)}
			if job.JobID == r.w.gated {
				if r.gate == nil {
					r.gate = newGate()
				}
				g.turn = r.gate
			}
			s.gens = append(s.gens, g)
		}
	}
	s.wg.Add(len(s.gens))
	for _, g := range s.gens {
		go g.runGen(&s.wg)
	}
	return s
}

// wait waits for every generator to return and merges their records.
func (s *genSet) wait() recorder {
	s.wg.Wait()
	var rec recorder
	for _, g := range s.gens {
		rec.merge(&g.rec)
	}
	return rec
}

// drive runs the measured window: the gated job's seeded on/off
// schedule, or one phase with every job on. In the traced run it
// samples the servers' share-ledger residual at the end of each phase
// in which every job is on, and returns the largest.
func (r *run) drive() ([]segment, float64) {
	segs := []segment{{start: 0, end: r.o.seconds, smallOn: true}}
	if r.gate != nil {
		segs = schedule(r.o.seed, r.o.seconds)
	}
	residual := 0.0
	for _, s := range segs {
		if r.gate != nil {
			r.gate.set(s.smallOn)
		}
		time.Sleep(time.Until(r.t0.Add(s.end)))
		if r.tr != nil && s.smallOn {
			for _, srv := range r.fab.servers {
				if v, ok := srv.ShareLedger().MaxResidual("job"); ok {
					residual = math.Max(residual, v)
				}
			}
		}
	}
	if r.gate != nil {
		r.gate.set(true) // let parked generators see the stop
	}
	return segs, residual
}

// endToEnd computes the end-to-end metrics of the measured window. Each
// rate and percentile is the median of its values over the steady
// slices of the window; the sample count beside a percentile covers
// those slices.
func (r *run) endToEnd(segs []segment, setup time.Duration, res *result) map[string]float64 {
	m := map[string]float64{}
	sec := r.tl.width.Seconds()
	ts := steadySlices(r.tl, segs, r.settle())
	m["setup_s"] = setup.Seconds()
	var total int64
	for _, t := range ts {
		total += t.bytes[kWrite].Load() + t.bytes[kRead].Load()
	}
	res.meanMBps = ratio(float64(total)/1e6, sec*float64(len(ts)))
	m["throughput_MBps"] = medianOver(ts, func(t *tally) (float64, bool) {
		return float64(t.bytes[kWrite].Load()+t.bytes[kRead].Load()) / 1e6 / sec, true
	})
	for k, key := range map[int]string{kWrite: "write_MBps", kRead: "read_MBps"} {
		m[key] = medianOver(ts, func(t *tally) (float64, bool) {
			busy := time.Duration(t.busy[k].Load())
			return ratio(float64(t.bytes[k].Load())/1e6, busy.Seconds()), busy > 0
		})
	}
	m["ops_per_s"] = medianOver(ts, func(t *tally) (float64, bool) {
		var n int64
		for k := range t.lat {
			n += t.lat[k].count()
		}
		return float64(n) / sec, true
	})
	for k, name := range kindNames {
		var n int64
		for _, t := range ts {
			n += t.lat[k].count()
		}
		for _, p := range []int{50, 90, 99} {
			key := fmt.Sprintf("%s_p%d_ms", name, p)
			m[key] = medianOver(ts, func(t *tally) (float64, bool) {
				return t.lat[k].percentile(float64(p)), t.lat[k].count() > 0
			})
			res.samples[key] = int(n)
		}
	}
	m["share_min_ratio"], m["reclaim_ratio"] = r.fairness(segs, res)
	m["max_rss_MB"] = float64(maxRSSBytes()) / 1e6
	return m
}

// settle is how long after a schedule change the fair-share figures
// start counting again, so the queues have refilled or drained.
func (r *run) settle() time.Duration { return r.o.seconds / 100 }

// steadySlices returns the slices of rec that lie wholly inside a
// phase with every job on, from settle after the phase starts: on
// fair-share the latencies of the contended phases and of the phases
// the small job sits out differ, and a slice that mixes both would put
// a figure between the two.
func steadySlices(tl *timeline, segs []segment, settle time.Duration) []*tally {
	var ts []*tally
	for i := range tl.slices {
		from, to := time.Duration(i)*tl.width, time.Duration(i+1)*tl.width
		for _, s := range segs {
			if s.smallOn && s.start+settle <= from && to <= s.end {
				ts = append(ts, &tl.slices[i])
				break
			}
		}
	}
	return ts
}

// fairness compares each job's share of the acked bytes with the share
// policy.Shares compiles for the jobs active in the window. Windows
// start a settle time after each schedule change, so queues have
// refilled or drained. It returns the smallest measured/compiled ratio
// and reclaim, the served MB/s with the gated job off over the MB/s
// with every job on (1 when the schedule never turns a job off: no
// cycles are left idle to reclaim).
func (r *run) fairness(segs []segment, res *result) (minRatio, reclaim float64) {
	settle := r.settle()
	type agg struct {
		bytes []int64
		dur   time.Duration
	}
	phases := map[bool]*agg{}
	for _, s := range segs {
		a := phases[s.smallOn]
		if a == nil {
			a = &agg{bytes: make([]int64, len(r.w.jobs))}
			phases[s.smallOn] = a
		}
		for j := range r.w.jobs {
			a.bytes[j] += r.acked[j].sum(s.start+settle, s.end)
		}
		a.dur += r.acked[0].span(s.start+settle, s.end)
	}
	minRatio = math.Inf(1)
	for _, on := range []bool{true, false} {
		a := phases[on]
		if a == nil {
			continue
		}
		var active []policy.JobInfo
		var total int64
		for j, job := range r.w.jobs {
			total += a.bytes[j]
			if on || job.JobID != r.w.gated {
				active = append(active, job)
			}
		}
		target, err := policy.Shares(active, r.w.policy)
		if err != nil || total == 0 {
			res.problems = append(res.problems, fmt.Sprintf("no share measurable (gated job on=%v): %d bytes, %v", on, total, err))
			continue
		}
		for j, job := range r.w.jobs {
			t, ok := target[job.JobID]
			if !ok || t == 0 {
				continue
			}
			got := float64(a.bytes[j]) / float64(total)
			minRatio = math.Min(minRatio, got/t)
			if r.w.gated != "" {
				res.notes = append(res.notes, fmt.Sprintf("share job=%s all_on=%v measured=%.4f compiled=%.4f residual=%+.4f bytes=%d window_s=%.2f",
					job.JobID, on, got, t, got-t, a.bytes[j], a.dur.Seconds()))
			}
		}
	}
	if math.IsInf(minRatio, 1) {
		minRatio = 0
	}
	return minRatio, r.reclaim(segs, settle)
}

// reclaim returns the served MB/s over the phases with the gated job
// off, divided by the served MB/s over on-windows as long as those
// phases, taken half just before and half just after each of them. The
// host's speed drifts over seconds; comparing each off phase with its
// neighbourhood cancels that drift. It returns 1 when the schedule has
// no off phase.
func (r *run) reclaim(segs []segment, settle time.Duration) float64 {
	var offBytes, onBytes int64
	var offDur, onDur time.Duration
	served := func(from, to time.Duration) (int64, time.Duration) {
		var n int64
		for j := range r.w.jobs {
			n += r.acked[j].sum(from, to)
		}
		return n, r.acked[0].span(from, to)
	}
	add := func(n *int64, d *time.Duration, from, to time.Duration) {
		b, t := served(from, to)
		*n += b
		*d += t
	}
	for i, s := range segs {
		if s.smallOn {
			continue
		}
		half := (s.end - s.start) / 2
		add(&offBytes, &offDur, s.start+settle, s.end)
		if i > 0 {
			prev := segs[i-1]
			add(&onBytes, &onDur, max(prev.start+settle, s.start-half), s.start)
		}
		if i+1 < len(segs) {
			next := segs[i+1]
			add(&onBytes, &onDur, next.start+settle, min(next.end, next.start+settle+half))
		}
	}
	if offDur == 0 {
		return 1
	}
	return ratio(float64(offBytes)/offDur.Seconds(), float64(onBytes)/onDur.Seconds())
}

// conservation checks, per job, that the servers' schedulers served
// at least the data bytes the client saw acknowledged (no acked byte
// went unserved) and at most those plus the scheduling cost of the
// job's metadata calls, each of which is at most metaRPCsPerCall
// scheduled requests (none was served twice). It runs after every
// generator has returned, when nothing is in flight.
func (r *run) conservation() []string {
	served := map[string]int64{}
	for _, s := range r.fab.servers {
		for job, n := range s.Scheduler().ServedBytes() {
			served[job] += n
		}
	}
	var out []string
	for j, job := range r.w.jobs {
		acked, s := r.ackedTotal[j].Load(), served[job.JobID]
		slack := sched.MetaCost * metaRPCsPerCall * (r.metaCalls[j].Load() + 1) // +1: the set-up probe
		if s < acked || s-acked > slack {
			out = append(out, fmt.Sprintf("conservation: job %s served %d bytes, acked %d, metadata allowance %d",
				job.JobID, s, acked, slack))
		}
	}
	return out
}
