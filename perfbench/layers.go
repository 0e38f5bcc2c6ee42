package main

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"themisio/internal/obsv"
)

// Per-layer figures of the traced run come from three sources: spans
// around the benchmark's own client calls, the counters the servers
// already export through their metrics registries (read here from the
// Prometheus text exposition), and timed replays of the workload's
// message mix through each lower layer's public functions (replay.go).

// series is one registry scrape: full series key (name plus label set)
// to value.
type series map[string]float64

func scrape(reg *obsv.Registry) series {
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		return series{}
	}
	m := series{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m
}

// sum totals the series of family name whose labels include every
// `key="value"` pair in labels.
func (m series) sum(name string, labels ...string) float64 {
	t := 0.0
	for k, v := range m {
		fam, lab, _ := strings.Cut(k, "{")
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lab, l) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// snapshot is the state the traced run diffs across its measured window.
type snapshot struct {
	at     time.Time
	series []series // per server
	gens   []uint64 // job-table generation per server
	cpu    time.Duration
	mem    runtime.MemStats
}

func takeSnapshot(f *fabric) snapshot {
	s := snapshot{at: time.Now(), cpu: cpuTime()}
	for i, srv := range f.servers {
		s.series = append(s.series, scrape(f.regs[i]))
		s.gens = append(s.gens, srv.Table().Generation())
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSBytes is the process's peak resident set size.
func maxRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports kilobytes
}

// window is the change between two snapshots.
type window struct{ a, b snapshot }

// sum is a family's growth over the window, summed over servers.
func (w window) sum(name string, labels ...string) float64 {
	t := 0.0
	for i := range w.b.series {
		t += w.b.series[i].sum(name, labels...) - w.a.series[i].sum(name, labels...)
	}
	return t
}

// proc is the growth of a process-wide family (every server's registry
// reports the same value; the first is read).
func (w window) proc(name string) float64 {
	return w.b.series[0].sum(name) - w.a.series[0].sum(name)
}

func (w window) seconds() float64 { return w.b.at.Sub(w.a.at).Seconds() }

// pendingSampler averages the servers' total queued requests over the
// measured window, for the queue-wait estimate by Little's law.
type pendingSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	sum  float64
	n    int
}

const pendingEvery = 5 * time.Millisecond

func startPendingSampler(f *fabric) *pendingSampler {
	p := &pendingSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(pendingEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				q := 0
				for _, s := range f.servers {
					q += s.Scheduler().Pending()
				}
				p.mu.Lock()
				p.sum += float64(q)
				p.n++
				p.mu.Unlock()
			}
		}
	}()
	return p
}

// mean stops the sampler and returns the average queue length.
func (p *pendingSampler) mean() float64 {
	close(p.stop)
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return ratio(p.sum, float64(p.n))
}

// metaSpan reports whether a span name is a metadata call.
func metaSpan(name string) bool {
	switch name {
	case "open", "stat", "close", "unlink":
		return true
	}
	return false
}

// spanMeans returns the mean duration in ms of the write, read and meta
// call spans.
func spanMeans(spans []span) [numKinds]float64 {
	var sum [numKinds]time.Duration
	var n [numKinds]int
	for _, s := range spans {
		k := -1
		switch {
		case s.name == "write":
			k = kWrite
		case s.name == "read":
			k = kRead
		case metaSpan(s.name):
			k = kMeta
		}
		if k >= 0 {
			sum[k] += s.end - s.start
			n[k]++
		}
	}
	var out [numKinds]float64
	for k := range out {
		if n[k] > 0 {
			out[k] = ms(sum[k]) / float64(n[k])
		}
	}
	return out
}

// layerInputs is what the traced run hands the per-layer computation.
type layerInputs struct {
	rec         *recorder
	tl          *timeline
	win         window
	pendingMean float64
	residual    float64
	converge    time.Duration
	servers     int
}

// layerMetrics computes the per-layer figures that come from the live
// run: spans, exported counters and process counters.
func layerMetrics(in layerInputs) map[string]float64 {
	w, rec := in.win, in.rec
	m := map[string]float64{}
	userBytes := float64(in.tl.bytes(kWrite) + in.tl.bytes(kRead))
	perKind, calls := in.tl.calls()

	// client
	means := spanMeans(rec.spans)
	for k, name := range kindNames {
		m["client.call_ms."+name] = means[k]
	}
	m["client.rpcs_per_call.write"] = ratio(w.sum("themis_transport_frames_total", `type="write"`, `dir="in"`), float64(perKind[kWrite]))
	m["client.rpcs_per_call.read"] = ratio(w.sum("themis_transport_frames_total", `type="read"`, `dir="in"`), float64(perKind[kRead]))

	// transport (the codec replay adds the encode/decode figures)
	m["transport.wire_bytes_per_user_byte"] = ratio(w.sum("themis_transport_bytes_total"), userBytes)
	vec := w.proc("themis_transport_writev_frames_total")
	m["transport.writev_frame_frac"] = ratio(vec, vec+w.proc("themis_transport_flat_frames_total"))
	m["transport.lease_miss_ratio"] = ratio(w.proc("themis_transport_lease_misses_total"), w.proc("themis_transport_lease_gets_total"))
	m["transport.pool_miss_ratio"] = ratio(w.proc("themis_transport_pool_misses_total"), w.proc("themis_transport_pool_gets_total"))

	// server
	const lat = "themis_server_request_latency_seconds"
	for _, op := range []string{"write", "read"} {
		m["server.residency_ms."+op] = 1000 * ratio(w.sum(lat+"_sum", `op="`+op+`"`), w.sum(lat+"_count", `op="`+op+`"`))
	}
	metaSum := w.sum(lat+"_sum") - w.sum(lat+"_sum", `op="write"`) - w.sum(lat+"_sum", `op="read"`)
	metaCount := w.sum(lat+"_count") - w.sum(lat+"_count", `op="write"`) - w.sum(lat+"_count", `op="read"`)
	m["server.residency_ms.meta"] = 1000 * ratio(metaSum, metaCount)
	served := w.sum("themis_server_requests_served_total")
	reqRate := ratio(served, w.seconds())
	m["server.requests_per_s"] = reqRate

	// core
	const draw = "themis_sched_draw_latency_seconds"
	m["core.draw_us"] = 1e6 * ratio(w.sum(draw+"_sum"), w.sum(draw+"_count"))
	m["core.draws_per_request"] = ratio(w.sum("themis_sched_draws_total"), served)
	m["core.queue_wait_ms"] = 1000 * ratio(in.pendingMean, reqRate)
	allServed := w.sum("themis_sched_served_bytes_total")
	for _, job := range []string{"big", "small"} {
		m["core.served_share."+job] = ratio(w.sum("themis_sched_served_bytes_total", `job="`+job+`"`), allServed)
	}

	// policy, jobtable, cluster, metrics
	m["policy.compiles_in_window"] = w.sum("themis_sched_policy_compiles_total")
	moves := 0.0
	for i := range w.b.gens {
		moves += float64(w.b.gens[i] - w.a.gens[i])
	}
	m["jobtable.gen_moves_in_window"] = moves
	m["cluster.converge_s"] = in.converge.Seconds()
	m["cluster.gossip_rounds_per_s"] = ratio(w.sum("themis_cluster_gossip_rounds_total"), w.seconds()*float64(in.servers))
	m["metrics.share_residual_max_abs"] = in.residual

	// runtime
	mb := userBytes / 1e6
	m["runtime.cpu_ms_per_MB"] = ratio(ms(w.b.cpu-w.a.cpu), mb)
	m["runtime.alloc_bytes_per_user_byte"] = ratio(float64(w.b.mem.TotalAlloc-w.a.mem.TotalAlloc), userBytes)
	m["runtime.mallocs_per_op"] = ratio(float64(w.b.mem.Mallocs-w.a.mem.Mallocs), float64(calls))
	m["runtime.gc_cycles_per_GB"] = ratio(float64(w.b.mem.NumGC-w.a.mem.NumGC), userBytes/1e9)
	return m
}
