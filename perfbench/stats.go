package main

import (
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// sliceWidth is the target width of the slices the measured window is
// cut into. Each end-to-end rate and percentile is computed per slice
// and the median over the slices is reported, so a stall that covers a
// few slices (another tenant of the host taking the CPU) does not move
// the figure.
const sliceWidth = 500 * time.Millisecond

// numSlices is how many slices a measured window of length T is cut
// into: T/sliceWidth, rounded, and at least one.
func numSlices(T time.Duration) int {
	n := int((T + sliceWidth/2) / sliceWidth)
	if n < 1 {
		n = 1
	}
	return n
}

// timeline is a run's calls by the slice of the measured window they
// completed in. Every generator records into it, so its counters are
// atomic; its size is fixed when the run starts and does not grow with
// the number of calls, so it adds the same memory to every run.
type timeline struct {
	width  time.Duration // of one slice
	slices []tally
}

// tally is the calls that completed in one slice of the measured
// window.
type tally struct {
	lat   [numKinds]hist
	busy  [numKinds]atomic.Int64 // nanoseconds inside calls
	bytes [numKinds]atomic.Int64
}

func newTimeline(T time.Duration) *timeline {
	n := numSlices(T)
	return &timeline{width: T / time.Duration(n), slices: make([]tally, n)}
}

// add records a call of kind that took d, moved n user bytes and
// completed at offset at into the measured window. Calls completing
// after the window are not recorded.
func (tl *timeline) add(kind int, at, d time.Duration, n int64) {
	i := int(at / tl.width)
	if at < 0 || i >= len(tl.slices) {
		return
	}
	t := &tl.slices[i]
	t.lat[kind].add(d)
	t.busy[kind].Add(int64(d))
	t.bytes[kind].Add(n)
}

// calls is the number of calls of each kind recorded in the measured
// window, and their total.
func (tl *timeline) calls() (perKind [numKinds]int64, total int64) {
	for i := range tl.slices {
		for k := 0; k < numKinds; k++ {
			perKind[k] += tl.slices[i].lat[k].count()
		}
	}
	for _, n := range perKind {
		total += n
	}
	return perKind, total
}

// bytes is the user bytes of kind recorded in the measured window.
func (tl *timeline) bytes(kind int) int64 {
	var n int64
	for i := range tl.slices {
		n += tl.slices[i].bytes[kind].Load()
	}
	return n
}

// Latency histogram buckets: one per nanosecond below 2*histSub ns, then
// histSub buckets per power of two, so a value read back from its bucket
// is within 1/histSub (1.6 %) of the value recorded. The last bucket
// also holds everything from 2^35 ns (34 s) up.
const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histBuckets = histSub * 30
)

// hist counts latencies in log-linear buckets.
type hist [histBuckets]atomic.Uint32

func (h *hist) add(d time.Duration) {
	h[bucketOf(uint64(max(d, 0)))].Add(1)
}

func bucketOf(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1
	i := histSub*e + int(v>>e)
	return min(i, histBuckets-1)
}

// bucketBounds returns the smallest value bucket i holds and its width.
func bucketBounds(i int) (low, width uint64) {
	if i < 2*histSub {
		return uint64(i), 1
	}
	e := i/histSub - 1
	return uint64(i%histSub+histSub) << e, 1 << e
}

func (h *hist) count() int64 {
	var n int64
	for i := range h {
		n += int64(h[i].Load())
	}
	return n
}

// percentile returns the nearest-rank p-th percentile in milliseconds,
// placed within its bucket by linear interpolation; it returns 0 when h
// is empty.
func (h *hist) percentile(p float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := min(max(int64(p/100*float64(n)+0.5), 1), n)
	var cum int64
	for i := range h {
		c := int64(h[i].Load())
		if cum+c >= rank {
			low, width := bucketBounds(i)
			return (float64(low) + (float64(rank-cum)-0.5)/float64(c)*float64(width)) / 1e6
		}
		cum += c
	}
	return 0
}

// recorder is one generator's call counts and spans. Only its own
// goroutine writes it; the run merges all recorders after the
// generators return.
type recorder struct {
	attempted int64
	failed    int64
	spans     []span
}

// merge folds o into r.
func (r *recorder) merge(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.spans = append(r.spans, o.spans...)
}

// medianOver returns the median of f over the tallies; tallies for
// which f reports no value are skipped. It returns 0 when none has one.
func medianOver(ts []*tally, f func(t *tally) (float64, bool)) float64 {
	var vs []float64
	for _, t := range ts {
		if v, ok := f(t); ok {
			vs = append(vs, v)
		}
	}
	return median(vs)
}

// median returns the median of vs, or 0 when vs is empty; vs is sorted
// in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	if n := len(vs); n%2 == 0 {
		return (vs[n/2-1] + vs[n/2]) / 2
	}
	return vs[len(vs)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
