package main

import (
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"themisio/internal/client"
	"themisio/internal/cluster"
	"themisio/internal/obsv"
	"themisio/internal/policy"
	"themisio/internal/server"
)

// lambda is the servers' gossip and job-table sync interval: the value
// the repository's own live tests use, short enough that convergence
// is a small part of set-up.
const lambda = 50 * time.Millisecond

// convergeTimeout bounds how long set-up waits for the membership views
// to agree before the run is abandoned.
const convergeTimeout = 10 * time.Second

// fabric is a set of live servers on loopback plus one client per job
// of the workload.
type fabric struct {
	servers []*server.Server
	// regs holds each server's metrics registry in the traced run; nil
	// entries (the untraced run) leave the servers uninstrumented.
	regs    []*obsv.Registry
	addrs   []string
	clients map[string]*client.Client
	// converge is the time from the first listener to every server
	// seeing every other one alive.
	converge time.Duration
}

// startFabric starts w.servers servers, waits for their membership
// views to converge, dials one client per job, and runs one metadata
// call per client: set-up ends at the first successful op.
func startFabric(w *spec, traced bool) (*fabric, error) {
	f := &fabric{clients: map[string]*client.Client{}}
	t0 := time.Now()
	for i := 0; i < w.servers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		cfg := server.Config{
			Policy:   w.policy,
			Capacity: w.capacity,
			Lambda:   lambda,
			Seed:     int64(i + 1),
			OpDelay:  w.opDelay,
			Quiet:    true,
		}
		if i > 0 {
			cfg.Join = []string{f.addrs[0]}
		}
		var reg *obsv.Registry
		if traced {
			reg = obsv.NewRegistry()
			cfg.Metrics = reg
		}
		s := server.New(ln, cfg)
		if err := s.BootErr(); err != nil {
			s.Close()
			f.close()
			return nil, fmt.Errorf("server %d boot: %w", i, err)
		}
		f.servers = append(f.servers, s)
		f.regs = append(f.regs, reg)
		f.addrs = append(f.addrs, s.Addr())
		go s.Serve()
	}
	for !f.converged() {
		if time.Since(t0) > convergeTimeout {
			f.close()
			return nil, fmt.Errorf("membership did not converge within %v", convergeTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	f.converge = time.Since(t0)
	for _, job := range w.jobs {
		opts := w.opts
		opts.ConnsPerServer = 1
		c, err := client.DialOpts(job, f.addrs, opts)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("dial %s: %w", job.JobID, err)
		}
		f.clients[job.JobID] = c
		if _, _, err := c.Stat("/"); err != nil {
			f.close()
			return nil, fmt.Errorf("first op of %s: %w", job.JobID, err)
		}
	}
	return f, nil
}

// converged reports whether every server sees all servers alive.
func (f *fabric) converged() bool {
	for _, s := range f.servers {
		alive := 0
		for _, m := range s.Cluster().Membership().Snapshot() {
			if m.State == cluster.StateAlive {
				alive++
			}
		}
		if alive != len(f.servers) {
			return false
		}
	}
	return true
}

// close stops the clients, then the servers, waiting for each.
func (f *fabric) close() {
	for _, c := range f.clients {
		c.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

// setUp starts reps fabrics, one after another, and keeps the last one
// for the workload. It returns the median set-up and convergence times,
// so that one slow start does not decide the reported figure.
func setUp(w *spec, traced bool, reps int) (f *fabric, setup, converge time.Duration, err error) {
	var setups, converges []time.Duration
	for i := 0; i < reps; i++ {
		if f != nil {
			f.close()
		}
		// Each server's store is one large allocation. Collecting the
		// previous fabric first makes every start after the first reuse
		// (and zero) that memory, instead of sometimes reusing it and
		// sometimes mapping fresh pages, depending on when the collector
		// last ran.
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		f, err = startFabric(w, traced)
		if err != nil {
			return nil, 0, 0, err
		}
		setups = append(setups, time.Since(t0))
		converges = append(converges, f.converge)
	}
	return f, medianDur(setups), medianDur(converges), nil
}

func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// jobInfo is the identity a workload job runs under.
func jobInfo(id string, nodes int) policy.JobInfo {
	return policy.JobInfo{JobID: id, UserID: "u-" + id, GroupID: "bench", Nodes: nodes}
}
