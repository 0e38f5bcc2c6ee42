package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"
)

// The inputs of a run — file paths, payload bytes and the fair-share
// on/off schedule — come only from the --seed argument, so the same
// seed drives the fabric with the same inputs.

// newPool returns size seeded bytes; every payload a run writes is a
// window of this pool, so read-backs verify against known bytes.
func newPool(seed int64, size int) []byte {
	b := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// genPlan is one generator's deterministic stream of paths and payload
// offsets.
type genPlan struct {
	rng    *rand.Rand
	prefix string
	n      int
}

func newGenPlan(seed int64, job string, gen int) *genPlan {
	return &genPlan{
		rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(gen) + 1)),
		prefix: fmt.Sprintf("/%s-g%d", job, gen),
	}
}

// path returns the next file path. The counter keeps live paths unique;
// the seeded suffix makes the names, and so their placement on the
// consistent-hash ring, depend on the seed.
func (p *genPlan) path() string {
	p.n++
	return fmt.Sprintf("%s-%d-%08x", p.prefix, p.n, p.rng.Uint32())
}

// data returns the next size-byte payload: a seeded window of pool.
func (p *genPlan) data(pool []byte, size int) []byte {
	off := p.rng.Intn(len(pool) - size + 1)
	return pool[off : off+size]
}

// segment is one phase of the fair-share schedule: the small job is on
// (both jobs backlogged) or off (big alone) over [start, end) of the
// measured window.
type segment struct {
	start, end time.Duration
	smallOn    bool
}

// scheduleOn is the share of the measured window the gated job is on.
const scheduleOn = 0.65

// scheduleCycle is the target length of one on/off cycle of the
// schedule. Short cycles put each off phase next to on phases measured
// under the same host conditions.
const scheduleCycle = 3 * time.Second

// scheduleCycles is how many cycles, and so off phases, the schedule of
// a window of length T has: T/scheduleCycle, rounded, and at least one.
func scheduleCycles(T time.Duration) int {
	n := int((T + scheduleCycle/2) / scheduleCycle)
	if n < 1 {
		n = 1
	}
	return n
}

// schedule returns the seeded on/off phases covering a measured window
// of length T. The window is cut into scheduleCycles(T) equal cycles, each
// holding one off phase of (1-scheduleOn) of the cycle at a seeded
// offset, so every seed loads the fabric with the same mix while the
// seed moves the switches. The window starts and ends with both jobs
// on.
func schedule(seed int64, T time.Duration) []segment {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var segs []segment
	add := func(s segment) {
		if n := len(segs); n > 0 && segs[n-1].smallOn == s.smallOn {
			segs[n-1].end = s.end
			return
		}
		segs = append(segs, s)
	}
	n := scheduleCycles(T)
	cycle := float64(T) / float64(n)
	for i := 0; i < n; i++ {
		start := time.Duration(float64(i) * cycle)
		on := time.Duration((0.15 + 0.35*rng.Float64()) * cycle)
		off := time.Duration((1 - scheduleOn) * cycle)
		add(segment{start: start, end: start + on, smallOn: true})
		add(segment{start: start + on, end: start + on + off})
		add(segment{start: start + on + off, end: time.Duration(float64(i+1) * cycle), smallOn: true})
	}
	segs[len(segs)-1].end = T
	return segs
}

// planDigest hashes the first loops of every generator's plan, the
// payload bytes they select and the fair-share schedule: the identity
// of a seed's inputs.
func planDigest(w *spec, seed int64, loops int) [32]byte {
	h := sha256.New()
	pool := newPool(seed, w.poolSize)
	for _, job := range w.jobs {
		for g := 0; g < w.gens; g++ {
			p := newGenPlan(seed, job.JobID, g)
			for i := 0; i < loops; i++ {
				h.Write([]byte(p.path()))
				h.Write(p.data(pool, w.payload))
			}
		}
	}
	for _, s := range schedule(seed, 15*time.Second) {
		binary.Write(h, binary.LittleEndian, [3]int64{int64(s.start), int64(s.end), boolInt(s.smallOn)})
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
