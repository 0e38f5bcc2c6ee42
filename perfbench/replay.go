package main

import (
	"fmt"
	"time"

	"themisio/internal/core"
	"themisio/internal/fsys"
	"themisio/internal/jobtable"
	"themisio/internal/policy"
	"themisio/internal/sched"
	"themisio/internal/storage"
	"themisio/internal/transport"
)

// The replays time the workload's message mix through each lower
// layer's public functions, outside the live fabric, so that a layer's
// own cost is measured without the scheduling noise of the whole run.
// Each figure is the mean over a fixed amount of work.

// replayBytes is the payload volume each data replay moves.
const replayBytes = 64 * miB

// nsPer runs fn n times and returns the mean nanoseconds per call.
func nsPer(n int, fn func(i int) error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// replayMetrics returns the replay-based per-layer figures for w.
// metaPath is a path of the workload's shape, for the metadata frames.
func replayMetrics(w *spec, payload []byte, metaPath string) (map[string]float64, error) {
	m := map[string]float64{}
	size := w.rpcBytes
	data := payload[:size]
	reps := max(64, replayBytes/size)
	perKiB := float64(size) / kiB
	var err error
	set := func(name string, v float64, e error) {
		if err == nil && e != nil {
			err = fmt.Errorf("%s replay: %w", name, e)
		}
		m[name] = v
	}

	// transport: encode and decode of the workload's three frame shapes.
	buf := make([]byte, 0, size+4*kiB)
	writeReq := &transport.Request{Type: transport.MsgWrite, Seq: 1, Path: metaPath, Data: data,
		AppendAt: true, AppendOff: int64(size), LayoutGen: 1}
	readResp := &transport.Response{Seq: 1, N: int64(size), Data: data}
	metaReq := &transport.Request{Type: transport.MsgStat, Seq: 1, Path: metaPath}
	frames := []struct {
		name string
		n    int
		enc  func() []byte
		dec  func(b []byte) error
	}{
		{"write_req", reps, func() []byte { return transport.AppendRequestFrame(buf[:0], writeReq) },
			func(b []byte) error { var r transport.Request; return transport.DecodeRequestFrame(b, &r) }},
		{"read_resp", reps, func() []byte { return transport.AppendResponseFrame(buf[:0], readResp) },
			func(b []byte) error { var r transport.Response; return transport.DecodeResponseFrame(b, &r) }},
		{"meta_req", 200_000, func() []byte { return transport.AppendRequestFrame(buf[:0], metaReq) },
			func(b []byte) error { var r transport.Request; return transport.DecodeRequestFrame(b, &r) }},
	}
	for _, f := range frames {
		v, e := nsPer(f.n, func(int) error { buf = f.enc(); return nil })
		set("transport.encode_ns."+f.name, v, e)
		frame := append([]byte(nil), f.enc()...)
		v, e = nsPer(f.n, func(int) error { return f.dec(frame) })
		set("transport.decode_ns."+f.name, v, e)
	}

	// core: push and pop through the token scheduler under the
	// workload's policy and jobs.
	v, e := replayPushPop(w, size)
	set("core.push_pop_ns", v, e)

	// policy and jobtable
	v, e = nsPer(20_000, func(int) error { _, err := policy.Compile(w.jobs, w.policy); return err })
	set("policy.compile_us", v/1000, e)
	tab := jobtable.New("replay", time.Second)
	v, e = nsPer(500_000, func(i int) error {
		tab.Observe(w.jobs[i%len(w.jobs)], time.Duration(i)*time.Microsecond)
		return nil
	})
	set("jobtable.observe_ns", v, e)

	// fsys and storage: the extent copies of one data RPC.
	app, rd, e := replayShard(w, data, reps)
	set("fsys.append_ns_per_KiB", app/perKiB, e)
	set("fsys.readat_ns_per_KiB", rd/perKiB, e)
	v, e = replayShardMeta(w)
	set("fsys.meta_us", v/1000, e)
	wr, rd, e := replayStore(data, reps)
	set("storage.writeat_ns_per_KiB", wr/perKiB, e)
	set("storage.readat_ns_per_KiB", rd/perKiB, e)
	return m, err
}

// replayPushPop returns the mean ns of one Push plus one Pop, in
// batches of 64 queued requests spread over the workload's jobs.
func replayPushPop(w *spec, size int) (float64, error) {
	const batch, rounds = 64, 2000
	t := core.New(w.policy, 1)
	t.SetJobs(w.jobs)
	reqs := make([]sched.Request, batch)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range reqs {
			reqs[i] = sched.Request{Job: w.jobs[i%len(w.jobs)], Op: sched.OpWrite, Bytes: int64(size)}
			t.Push(&reqs[i])
		}
		for i := 0; i < batch; i++ {
			if t.Pop(0, nil) == nil {
				return 0, fmt.Errorf("pop %d of %d returned nothing", i, batch)
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / (batch * rounds), nil
}

// replayShard returns the mean ns of one Append and one ReadAt of data
// on a shard. One untimed pass first touches the shard's store, so the
// timed pass copies into resident memory, as the live server does.
func replayShard(w *spec, data []byte, reps int) (appendNs, readNs float64, err error) {
	live := max(1, (32*miB)/len(data)) // appends per file before it is replaced
	sh := fsys.NewShard("replay", int64(live*len(data))+miB)
	const p = "/replay"
	last := 0 // appends in the file the read pass reads
	appendAll := func() (float64, error) {
		total := 0.0
		for done := 0; done < reps; {
			if err := sh.CreateEntry(p, false, 1, w.stripeUnit(), nil); err != nil {
				return 0, err
			}
			k := min(live, reps-done)
			v, err := nsPer(k, func(int) error { _, err := sh.Append(p, data); return err })
			if err != nil {
				return 0, err
			}
			total += v * float64(k)
			done += k
			last = k
			if done < reps {
				if err := sh.RemoveEntry(p); err != nil {
					return 0, err
				}
			}
		}
		return total / float64(reps), nil
	}
	if _, err := appendAll(); err != nil {
		return 0, 0, err
	}
	if err := sh.RemoveEntry(p); err != nil {
		return 0, 0, err
	}
	if appendNs, err = appendAll(); err != nil {
		return 0, 0, err
	}
	buf := make([]byte, len(data))
	readNs, err = nsPer(reps, func(i int) error {
		_, err := sh.ReadAt(p, int64(i%last)*int64(len(data)), buf)
		return err
	})
	return appendNs, readNs, err
}

// replayShardMeta returns the mean ns of a shard metadata call: each
// round creates, stats and removes one entry.
func replayShardMeta(w *spec) (float64, error) {
	sh := fsys.NewShard("replay", miB)
	paths := make([]string, 50_000)
	for i := range paths {
		paths[i] = fmt.Sprintf("/meta-%d", i)
	}
	v, err := nsPer(len(paths), func(i int) error {
		p := paths[i]
		if err := sh.CreateEntry(p, false, 1, w.stripeUnit(), nil); err != nil {
			return err
		}
		if _, err := sh.Stat(p); err != nil {
			return err
		}
		return sh.RemoveEntry(p)
	})
	return v / 3, err
}

// replayStore returns the mean ns of one store WriteAt and one ReadAt
// of data into an allocated extent.
func replayStore(data []byte, reps int) (writeNs, readNs float64, err error) {
	st := storage.NewStore(int64(len(data)))
	e, err := st.Alloc(int64(len(data)))
	if err != nil {
		return 0, 0, err
	}
	if _, err := st.WriteAt(e, 0, data); err != nil { // touch the extent
		return 0, 0, err
	}
	buf := make([]byte, len(data))
	if writeNs, err = nsPer(reps, func(int) error { _, err := st.WriteAt(e, 0, data); return err }); err != nil {
		return 0, 0, err
	}
	readNs, err = nsPer(reps, func(int) error { _, err := st.ReadAt(e, 0, buf); return err })
	return writeNs, readNs, err
}
