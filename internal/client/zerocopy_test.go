package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"themisio/internal/transport"
)

// TestZeroCopyHammer drives the pooled-payload path end to end with
// lease poisoning armed: several writers each stream a deterministic
// pattern through multiple Writes (the first rides the pre-capability
// fallback, the rest the pipelined positional path), then read it all
// back through the leased read replies. Any alias held past Release —
// on either side of the wire — corrupts a pattern byte and fails the
// compare; under -race the reuse also trips the detector.
func TestZeroCopyHammer(t *testing.T) {
	transport.SetLeasePoison(true)
	defer transport.SetLeasePoison(false)
	addrs := startServers(t, 4)

	const (
		writers   = 4
		perWrite  = 200 << 10 // crosses the 64 KiB units and the 8 KiB sg threshold
		numWrites = 5
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs <- func() error {
				c, err := DialOpts(testJob(fmt.Sprintf("zc%d", w)), addrs, Options{
					Stripes:        4,
					StripeUnit:     64 << 10,
					ConnsPerServer: 4,
				})
				if err != nil {
					return err
				}
				defer c.Close()
				path := fmt.Sprintf("/zc/f%d", w)
				if err := c.Mkdir("/zc"); err != nil && w != 0 {
					// Racing mkdirs: only one creator wins; that's fine.
					_ = err
				}
				fd, err := c.OpenFd(path, true)
				if err != nil {
					return err
				}
				want := make([]byte, 0, perWrite*numWrites)
				for i := 0; i < numWrites; i++ {
					chunk := make([]byte, perWrite)
					for j := range chunk {
						chunk[j] = byte((len(want)+j)*31 + w)
					}
					if n, err := c.Write(fd, chunk); err != nil || n != perWrite {
						return fmt.Errorf("write %d: n=%d err=%v", i, n, err)
					}
					want = append(want, chunk...)
				}
				if _, err := c.Lseek(fd, 0, 0); err != nil {
					return err
				}
				// Read back in chunks misaligned with both the stripe
				// unit and the write sizes.
				got := make([]byte, 0, len(want))
				buf := make([]byte, 150<<10)
				for len(got) < len(want) {
					n, err := c.Read(fd, buf)
					if err != nil {
						return fmt.Errorf("read at %d: %v", len(got), err)
					}
					if n == 0 {
						return fmt.Errorf("early EOF at %d of %d", len(got), len(want))
					}
					got = append(got, buf[:n]...)
				}
				if !bytes.Equal(got, want) {
					for i := range want {
						if got[i] != want[i] {
							return fmt.Errorf("writer %d: corruption at byte %d: got %#x want %#x", w, i, got[i], want[i])
						}
					}
				}
				return nil
			}()
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// The BDP estimator: default before samples, EWMA convergence, and the
// power-of-two clamp of the derived unit.
func TestBDPEstimator(t *testing.T) {
	var e bdpEstimator
	if e.unit() != DefaultStripeUnit {
		t.Fatalf("unsampled estimator must fall back to the default, got %d", e.unit())
	}
	e.observe(100, time.Millisecond) // small op → RTT sample only
	if e.unit() != DefaultStripeUnit {
		t.Fatal("RTT alone must not produce a unit")
	}
	// 1 GB/s over a 1 ms RTT → BDP 1 MB → unit 1 MiB (pow2 above 10^6).
	for i := 0; i < 50; i++ {
		e.observe(1<<20, time.Duration(float64(time.Second)*float64(1<<20)/1e9))
		e.observe(100, time.Millisecond)
	}
	if u := e.unit(); u != 1<<20 {
		t.Fatalf("1 GB/s × 1 ms should size a 1 MiB unit, got %d", u)
	}
	// A fat long pipe clamps at the top class…
	var hi bdpEstimator
	hi.observe(100, 100*time.Millisecond)
	hi.observe(64<<20, 100*time.Millisecond)
	if u := hi.unit(); u != maxAutoUnit {
		t.Fatalf("huge BDP must clamp to %d, got %d", maxAutoUnit, u)
	}
	// …and a thin short one at the bottom.
	var lo bdpEstimator
	lo.observe(100, 10*time.Microsecond)
	lo.observe(8<<10, 8*time.Millisecond)
	if u := lo.unit(); u != minAutoUnit {
		t.Fatalf("tiny BDP must clamp to %d, got %d", minAutoUnit, u)
	}
	// Units are powers of two in range.
	for _, u := range []int64{e.unit(), hi.unit(), lo.unit()} {
		if u&(u-1) != 0 || u < minAutoUnit || u > maxAutoUnit {
			t.Fatalf("unit %d is not a clamped power of two", u)
		}
	}
}

// stripeIovecs is the inverse of the round-robin split: for random
// stripe counts, units, windows and chunk sizes, the iovecs of every
// chunk of a server's local range are non-empty, disjoint, in local
// order and sum to the chunk length, and copying the local bytes
// through them rebuilds the global window exactly.
func TestStripeIovecsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		nStripes := 1 + rng.Intn(5)
		unit := int64(1 + rng.Intn(200))
		total := int64(rng.Intn(5000))
		global := make([]byte, total)
		for i := range global {
			global[i] = byte(rng.Int())
		}
		// Build each stripe's local image by the forward round-robin.
		locals := make([][]byte, nStripes)
		for off := int64(0); off < total; off++ {
			gu := off / unit
			idx := int(gu % int64(nStripes))
			locals[idx] = append(locals[idx], global[off])
		}
		g0 := int64(rng.Intn(int(total + 1)))
		g1 := g0 + int64(rng.Intn(int(total-g0+1)))
		// Each stripe's local [lo,hi) that the window touches.
		lo := make([]int64, nStripes)
		hi := make([]int64, nStripes)
		for i := range lo {
			lo[i] = -1
		}
		for off := g0; off < g1; off++ {
			gu := off / unit
			idx := int(gu % int64(nStripes))
			l := gu/int64(nStripes)*unit + off%unit
			if lo[idx] < 0 {
				lo[idx] = l
			}
			hi[idx] = l + 1
		}
		got := make([]byte, g1-g0)
		covered := make([]bool, len(got))
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("trial %d (stripes=%d unit=%d total=%d window=[%d,%d)): %s",
				trial, nStripes, unit, total, g0, g1, fmt.Sprintf(format, args...))
		}
		for idx := 0; idx < nStripes; idx++ {
			if lo[idx] < 0 {
				continue
			}
			for a := lo[idx]; a < hi[idx]; {
				n := min(int64(1+rng.Intn(300)), hi[idx]-a)
				src := locals[idx][a : a+n]
				prevEnd, sum := -1, int64(0)
				for _, seg := range stripeIovecs(got, g0, idx, nStripes, unit, a, n) {
					// A span of got starts at cap(got)-cap(seg).
					at := cap(got) - cap(seg)
					if len(seg) == 0 || at < prevEnd {
						fail("chunk [%d,%d) of stripe %d: empty or out-of-order iovec at %d", a, a+n, idx, at)
					}
					for i := at; i < at+len(seg); i++ {
						if covered[i] {
							fail("window byte %d covered twice", i)
						}
						covered[i] = true
					}
					src = src[copy(seg, src):]
					prevEnd = at + len(seg)
					sum += int64(len(seg))
				}
				if sum != n {
					fail("chunk [%d,%d) of stripe %d: iovecs sum to %d", a, a+n, idx, sum)
				}
				a += n
			}
		}
		for i, c := range covered {
			if !c {
				fail("window byte %d never covered", i)
			}
		}
		if !bytes.Equal(got, global[g0:g1]) {
			fail("de-stripe mismatch")
		}
	}
}

// spanTail slices the last need bytes out of a segment list without
// copying — the repair path's top-up source.
func TestSpanTail(t *testing.T) {
	base := []byte("abcdefghij")
	segs := [][]byte{base[0:3], base[3:4], base[4:10]} // abc | d | efghij
	for need := int64(0); need <= 10; need++ {
		tail := spanTail(segs, need)
		var flat []byte
		for _, s := range tail {
			flat = append(flat, s...)
		}
		if want := base[10-need:]; !bytes.Equal(flat, want) {
			t.Fatalf("need=%d: got %q want %q", need, flat, want)
		}
		// Zero-copy: every returned segment aliases the original base.
		for _, s := range tail {
			if len(s) > 0 && &s[0] != &base[10-len(flat):][0] && !aliases(base, s) {
				t.Fatalf("need=%d: segment does not alias the source", need)
			}
		}
	}
	if spanTail(segs, 99) == nil {
		t.Fatal("over-asking returns the whole span, not nil")
	}
}

// aliases reports whether sub's backing array lies within base's.
func aliases(base, sub []byte) bool {
	if len(sub) == 0 {
		return true
	}
	for i := range base {
		if &base[i] == &sub[0] {
			return true
		}
	}
	return false
}

// dribbleListener hands out connections whose writes leave in 32 KiB
// pieces with a pause between them, so a reply's payload is still
// arriving well after its head was read.
type dribbleListener struct{ net.Listener }

func (l dribbleListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return dribbleConn{c}, nil
}

type dribbleConn struct{ net.Conn }

func (c dribbleConn) Write(p []byte) (int, error) {
	n := 0
	for len(p) > 0 {
		w, err := c.Conn.Write(p[:min(len(p), 32<<10)])
		n += w
		p = p[w:]
		if err != nil {
			return n, err
		}
		if len(p) > 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	return n, nil
}

// Striped reads land in the caller's buffer while they are in flight,
// so a canceled ReadContext must not return until nothing can write
// there any more. Reads of more chunks than the read window, from
// servers that dribble their replies out, are canceled mid-flight in a
// loop; after each ErrCanceled the buffer is refilled with a sentinel,
// late replies are given time to arrive, and the sentinel must
// survive. Completed reads are checked against the file. Lease
// poisoning makes any write from a recycled frame show as well.
func TestReadCancelLeavesBuffer(t *testing.T) {
	transport.SetLeasePoison(true)
	defer transport.SetLeasePoison(false)
	addrs := startServersOn(t, 2, func(ln net.Listener) net.Listener { return dribbleListener{ln} })
	c, err := DialOpts(testJob("cancel"), addrs, Options{
		Stripes: 2, StripeUnit: 64 << 10, ConnsPerServer: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := c.Open("/cancel.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 10<<20)
	for i := range want {
		want[i] = byte(i*7 + i>>12)
	}
	if _, err := f.Write(want); err != nil {
		t.Fatal(err)
	}
	sentinel := bytes.Repeat([]byte{0x5a}, len(want))
	buf := make([]byte, len(want))
	rng := rand.New(rand.NewSource(11))
	canceled := 0
	for iter := 0; canceled < 10; iter++ {
		if iter == 500 {
			t.Fatalf("only %d of %d reads were canceled mid-flight", canceled, iter)
		}
		if _, err := f.Seek(0, 0); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(time.Duration(rng.Intn(2000))*time.Microsecond, cancel)
		n, err := f.ReadContext(ctx, buf)
		if err == nil {
			if n != len(want) || !bytes.Equal(buf, want) {
				t.Fatalf("iteration %d: completed read returned %d bytes, content mismatch", iter, n)
			}
			continue
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("iteration %d: %v, want ErrCanceled", iter, err)
		}
		canceled++
		copy(buf, sentinel)
		time.Sleep(10 * time.Millisecond)
		for i, v := range buf {
			if v != sentinel[i] {
				t.Fatalf("iteration %d: byte %d written after ReadContext returned", iter, i)
			}
		}
	}
}
