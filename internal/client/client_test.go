package client

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"themisio/internal/policy"
	"themisio/internal/server"
)

// startServers launches n standalone live servers (client-side striping
// needs no server fabric: placement is the client's ring).
func startServers(t *testing.T, n int) []string {
	t.Helper()
	return startServersOn(t, n, nil)
}

// startServersOn is startServers with each server's listener passed
// through wrap first (nil passes it as is).
func startServersOn(t *testing.T, n int, wrap func(net.Listener) net.Listener) []string {
	t.Helper()
	addrs := make([]string, n)
	for i, s := range launchServers(t, n, wrap) {
		addrs[i] = s.Addr()
	}
	return addrs
}

// launchServers is startServersOn returning the servers themselves, for
// tests that inspect them (request counts, per-server state).
func launchServers(t *testing.T, n int, wrap func(net.Listener) net.Listener) []*server.Server {
	t.Helper()
	srvs := make([]*server.Server, n)
	for i := range srvs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if wrap != nil {
			ln = wrap(ln)
		}
		s := server.New(ln, server.Config{
			Policy: policy.SizeFair,
			Lambda: 50 * time.Millisecond,
			Seed:   int64(i + 1),
			Quiet:  true,
		})
		go s.Serve()
		t.Cleanup(s.Close)
		srvs[i] = s
	}
	return srvs
}

func testJob(id string) policy.JobInfo {
	return policy.JobInfo{JobID: id, UserID: "u-" + id, GroupID: "g", Nodes: 2}
}

func TestDialErrors(t *testing.T) {
	if _, err := Dial(testJob("j"), nil); err == nil {
		t.Fatal("Dial with no servers should fail")
	}
	// A dead address fails fast (nothing listens on a closed listener).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	if _, err := Dial(testJob("j"), []string{dead}); err == nil {
		t.Fatal("Dial to a dead server should fail")
	}
}

func TestPerServerRouting(t *testing.T) {
	addrs := startServers(t, 3)
	c, err := Dial(testJob("route"), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	// Paths spread over servers by the consistent hash; every file must
	// land on exactly one server and read back from it.
	owners := map[string]bool{}
	for _, name := range []string{"/d/a", "/d/b", "/d/c", "/d/e", "/d/f", "/d/g"} {
		fd, err := c.OpenFd(name, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := c.Write(fd, []byte(name)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		owner, _ := c.ring.Lookup(name)
		owners[owner] = true
		got := make([]byte, 64)
		if _, err := c.Lseek(fd, 0, 0); err != nil {
			t.Fatal(err)
		}
		n, err := c.Read(fd, got)
		if err != nil || string(got[:n]) != name {
			t.Fatalf("%s: read %q err=%v", name, got[:n], err)
		}
	}
	if len(owners) < 2 {
		t.Fatalf("6 paths all routed to %d server(s)", len(owners))
	}
	// Readdir merges every server's children.
	names, err := c.Readdir("/d")
	if err != nil || len(names) != 6 {
		t.Fatalf("Readdir = %v err=%v", names, err)
	}
}

func TestClientErrorPaths(t *testing.T) {
	addrs := startServers(t, 2)
	c, err := Dial(testJob("errs"), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.OpenFd("/nope", false); err == nil {
		t.Fatal("opening a missing file should fail")
	}
	if _, err := c.Read(99, make([]byte, 8)); err == nil {
		t.Fatal("read on bad fd should fail")
	}
	if _, err := c.Write(99, []byte("x")); err == nil {
		t.Fatal("write on bad fd should fail")
	}
	if _, err := c.Lseek(99, 0, 0); err == nil {
		t.Fatal("lseek on bad fd should fail")
	}
	if err := c.Unlink("/nope"); err == nil {
		t.Fatal("unlink of a missing file should fail")
	}
	fd, err := c.OpenFd("/f", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lseek(fd, 0, 9); err == nil || !strings.Contains(err.Error(), "whence") {
		t.Fatalf("bad whence error = %v", err)
	}
	if err := c.Mkdir("/missing/parent"); err == nil {
		t.Fatal("mkdir under a missing parent should fail")
	}
	if _, err := c.Readdir("/f"); err == nil {
		t.Fatal("readdir of a file should fail")
	}
}

func TestStripedRoundTrip(t *testing.T) {
	addrs := startServers(t, 3)
	c, err := DialOpts(testJob("stripe"), addrs, Options{Stripes: 3, StripeUnit: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fd, err := c.OpenFd("/striped", true)
	if err != nil {
		t.Fatal(err)
	}
	// Appends of awkward sizes: unit-straddling, sub-unit, multi-unit.
	var want []byte
	for i, sz := range []int{1000, 3000, 50000, 24, 8192} {
		chunk := bytes.Repeat([]byte{byte(i + 1)}, sz)
		for j := range chunk {
			chunk[j] ^= byte(j * 17)
		}
		if n, err := c.Write(fd, chunk); err != nil || n != sz {
			t.Fatalf("write %d: n=%d err=%v", sz, n, err)
		}
		want = append(want, chunk...)
	}
	if size, _, err := c.Stat("/striped"); err != nil || size != int64(len(want)) {
		t.Fatalf("stat = %d err=%v, want %d", size, err, len(want))
	}
	if _, err := c.Lseek(fd, 0, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if n, err := c.Read(fd, got); err != nil || n != len(want) {
		t.Fatalf("full read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("striped data mismatch")
	}
	// Interior unaligned reads across stripe boundaries.
	for _, rg := range [][2]int{{0, 10}, {1020, 9}, {1000, 3000}, {50000, 12000}, {62200, 100}} {
		off, ln := rg[0], rg[1]
		if _, err := c.Lseek(fd, int64(off), 0); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, ln)
		n, err := c.Read(fd, buf)
		if err != nil {
			t.Fatalf("read [%d,%d): %v", off, off+ln, err)
		}
		exp := want[off:min(off+ln, len(want))]
		if !bytes.Equal(buf[:n], exp) {
			t.Fatalf("read [%d,%d) mismatch (n=%d)", off, off+ln, n)
		}
	}
	// Reading past EOF returns 0.
	if _, err := c.Lseek(fd, int64(len(want))+100, 0); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Read(fd, make([]byte, 8)); err != nil || n != 0 {
		t.Fatalf("past-EOF read: n=%d err=%v", n, err)
	}
	// Open the same file fresh: the size comes from summed stripe stats.
	fd2, err := c.OpenFd("/striped", false)
	if err != nil {
		t.Fatal(err)
	}
	if off, err := c.Lseek(fd2, 0, 2); err != nil || off != int64(len(want)) {
		t.Fatalf("seek-end = %d err=%v", off, err)
	}
	// Unlink removes every stripe.
	if err := c.Unlink("/striped"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Stat("/striped"); err == nil {
		t.Fatal("stat after unlink should fail")
	}
}

func TestClientFailover(t *testing.T) {
	addrs := startServers(t, 2)
	// A third, doomed server.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	doomed := server.New(ln, server.Config{Policy: policy.SizeFair, Quiet: true})
	go doomed.Serve()
	c, err := Dial(testJob("fo"), append(addrs, doomed.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := len(c.Servers()); got != 3 {
		t.Fatalf("client sees %d servers, want 3", got)
	}
	doomed.Close()
	// Every path stays writable: the client reroutes to the reassigned
	// ring owner after the dead connection errors out. Enough distinct
	// paths guarantees some hash to the dead server's segment.
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("/f%02d", i)
		var lastErr error
		ok := false
		for attempt := 0; attempt < 5 && !ok; attempt++ {
			fd, err := c.OpenFd(name, true)
			if err != nil {
				lastErr = err
				continue
			}
			if _, err := c.Write(fd, []byte(name)); err != nil {
				lastErr = err
				continue
			}
			ok = true
		}
		if !ok {
			t.Fatalf("%s unwritable after failover: %v", name, lastErr)
		}
	}
	if got := len(c.Servers()); got != 2 {
		t.Fatalf("client sees %d servers after failover, want 2", got)
	}
}

// Stripe width lives in the file's metadata, not the client's flags: a
// client with a different (or default) striping configuration must see
// the right size and read the right bytes.
func TestStripeWidthInterop(t *testing.T) {
	addrs := startServers(t, 3)
	w, err := DialOpts(testJob("writer"), addrs, Options{Stripes: 3, StripeUnit: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	want := bytes.Repeat([]byte("striped-interop/"), 4096) // 64 KiB
	fd, err := w.OpenFd("/interop", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(fd, want); err != nil {
		t.Fatal(err)
	}

	// A default (unstriped) client reads the same file correctly.
	r, err := Dial(testJob("reader"), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if size, _, err := r.Stat("/interop"); err != nil || size != int64(len(want)) {
		t.Fatalf("interop stat = %d err=%v, want %d", size, err, len(want))
	}
	rfd, err := r.OpenFd("/interop", false)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if n, err := r.Read(rfd, got); err != nil || n != len(want) {
		t.Fatalf("interop read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("interop read mismatch")
	}
	if err := r.Unlink("/interop"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Stat("/interop"); err == nil {
		t.Fatal("unlink by the unstriped client should remove every stripe")
	}
}

// POSIX lseek: a resulting offset below zero is EINVAL, with the
// handle unmoved — the old behaviour silently clamped to zero, so a
// caller's off-by-N seek bug quietly reread the file head. Regression
// for the whence 0/1 arithmetic; whence 2 keeps resolving end-of-file
// through Stat and refuses a negative result the same way.
func TestLseekNegative(t *testing.T) {
	addrs := startServers(t, 1)
	c, err := Dial(testJob("seek"), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fd, err := c.OpenFd("/seek", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fd, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lseek(fd, -1, 0); err == nil {
		t.Fatal("whence 0 to a negative offset must fail")
	}
	if off, err := c.Lseek(fd, 4, 0); err != nil || off != 4 {
		t.Fatalf("seek-set = %d err=%v", off, err)
	}
	if _, err := c.Lseek(fd, -5, 1); err == nil {
		t.Fatal("whence 1 producing a negative offset must fail")
	}
	// The failed seeks must not have moved the handle.
	if off, err := c.Lseek(fd, 0, 1); err != nil || off != 4 {
		t.Fatalf("offset after refused seeks = %d err=%v, want 4", off, err)
	}
	if _, err := c.Lseek(fd, -11, 2); err == nil {
		t.Fatal("whence 2 producing a negative offset must fail")
	}
	if off, err := c.Lseek(fd, -10, 2); err != nil || off != 0 {
		t.Fatalf("seek-end -size = %d err=%v, want 0", off, err)
	}
}

// localLen is the invariant the write-repair path leans on: the local
// stripe lengths of a round-robin layout must always sum to the total
// and match a brute-force unit walk.
func TestLocalLen(t *testing.T) {
	for _, tc := range []struct {
		total int64
		n     int
		unit  int64
	}{
		{0, 3, 1024}, {1, 3, 1024}, {1024, 3, 1024}, {1025, 3, 1024},
		{3 * 1024, 3, 1024}, {10*1024 + 7, 3, 1024}, {65536, 4, 4096},
		{999999, 5, 4096}, {5, 1, 1024},
	} {
		var sum int64
		brute := make([]int64, tc.n)
		for off := int64(0); off < tc.total; {
			u := off / tc.unit
			n := tc.unit - off%tc.unit
			if n > tc.total-off {
				n = tc.total - off
			}
			brute[int(u)%tc.n] += n
			off += n
		}
		for i := 0; i < tc.n; i++ {
			got := localLen(tc.total, i, tc.n, tc.unit)
			if got != brute[i] {
				t.Fatalf("localLen(%d,%d,%d,%d) = %d, want %d",
					tc.total, i, tc.n, tc.unit, got, brute[i])
			}
			sum += got
		}
		if sum != tc.total {
			t.Fatalf("localLen over %+v sums to %d", tc, sum)
		}
	}
}

// bruteLocalLens walks the round-robin layout unit by unit — the
// reference implementation the closed form must match.
func bruteLocalLens(total int64, n int, unit int64) []int64 {
	out := make([]int64, n)
	for off := int64(0); off < total; {
		u := off / unit
		step := unit - off%unit
		if step > total-off {
			step = total - off
		}
		out[int(u)%n] += step
		off += step
	}
	return out
}

// Property test over randomized (total, nStripes, unit): the
// rebalancer's migration planner and the write-repair path both lean
// on localLen agreeing with the brute-force unit walk for arbitrary
// geometries, including totals far from cycle boundaries and units
// down to a single byte.
func TestLocalLenProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 5000; iter++ {
		n := 1 + rng.Intn(9)
		unit := int64(1 + rng.Intn(1<<13))
		var total int64
		switch rng.Intn(4) {
		case 0:
			total = int64(rng.Intn(10)) // tiny files
		case 1:
			total = unit * int64(n) * int64(rng.Intn(8)) // exact cycles
		case 2:
			total = unit*int64(n)*int64(rng.Intn(8)) + int64(rng.Intn(int(unit))) // mid-unit tail
		default:
			total = int64(rng.Intn(1 << 20))
		}
		brute := bruteLocalLens(total, n, unit)
		var sum int64
		for i := 0; i < n; i++ {
			got := localLen(total, i, n, unit)
			if got != brute[i] {
				t.Fatalf("iter %d: localLen(%d,%d,%d,%d) = %d, want %d",
					iter, total, i, n, unit, got, brute[i])
			}
			if got < 0 {
				t.Fatalf("iter %d: negative local length %d", iter, got)
			}
			sum += got
		}
		if sum != total {
			t.Fatalf("iter %d: lengths sum to %d, want %d", iter, sum, total)
		}
	}
}
