package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"themisio/internal/client"
	"themisio/internal/policy"
)

// startServers launches n live servers on loopback TCP, fully peered for
// λ-sync, and returns their addresses plus a shutdown func.
func startServers(t *testing.T, n int, pol policy.Policy) ([]string, func()) {
	return startServersDelay(t, n, pol, 0)
}

func startServersDelay(t *testing.T, n int, pol policy.Policy, opDelay time.Duration) ([]string, func()) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	servers := make([]*Server, n)
	for i := range lns {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		servers[i] = New(lns[i], Config{
			Policy:  pol,
			Lambda:  50 * time.Millisecond,
			Peers:   peers,
			Seed:    int64(i + 1),
			OpDelay: opDelay,
			Quiet:   true,
		})
		go servers[i].Serve()
	}
	return addrs, func() {
		for _, s := range servers {
			s.Close()
		}
	}
}

func jobInfo(id string, nodes int) policy.JobInfo {
	return policy.JobInfo{JobID: id, UserID: "u-" + id, GroupID: "g", Nodes: nodes}
}

func TestLiveRoundTripSingleServer(t *testing.T) {
	addrs, stop := startServers(t, 1, policy.SizeFair)
	defer stop()
	c, err := client.Dial(jobInfo("job1", 4), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Mkdir("/data"); err != nil {
		t.Fatal(err)
	}
	fd, err := c.OpenFd("/data/hello.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("through the statistical token scheduler")
	if n, err := c.Write(fd, msg); err != nil || n != len(msg) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	if _, err := c.Lseek(fd, 0, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if n, err := c.Read(fd, got); err != nil || n != len(msg) {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip: %q", got)
	}
	size, isDir, err := c.Stat("/data/hello.bin")
	if err != nil || isDir || size != int64(len(msg)) {
		t.Fatalf("stat: %d %v %v", size, isDir, err)
	}
	names, err := c.Readdir("/data")
	if err != nil || len(names) != 1 || names[0] != "hello.bin" {
		t.Fatalf("readdir: %v %v", names, err)
	}
	if err := c.CloseFd(fd); err != nil {
		t.Fatal(err)
	}
	if err := c.Unlink("/data/hello.bin"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Stat("/data/hello.bin"); err == nil {
		t.Fatal("stat after unlink should fail")
	}
}

func TestLiveMultiServerPlacementAndSync(t *testing.T) {
	addrs, stop := startServers(t, 3, policy.SizeFair)
	defer stop()
	c, err := client.Dial(jobInfo("job1", 8), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Mkdir("/spread"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	contents := map[string][]byte{}
	for i := 0; i < 24; i++ {
		p := fmt.Sprintf("/spread/file-%02d", i)
		fd, err := c.OpenFd(p, true)
		if err != nil {
			t.Fatalf("create %s: %v", p, err)
		}
		data := make([]byte, rng.Intn(60000)+1)
		rng.Read(data)
		if _, err := c.Write(fd, data); err != nil {
			t.Fatalf("write %s: %v", p, err)
		}
		contents[p] = data
		c.CloseFd(fd)
	}
	// All files visible in one merged directory listing.
	names, err := c.Readdir("/spread")
	if err != nil || len(names) != 24 {
		t.Fatalf("readdir merged %d names (%v)", len(names), err)
	}
	// Data round-trips regardless of which server owns the file.
	for p, want := range contents {
		fd, err := c.OpenFd(p, false)
		if err != nil {
			t.Fatalf("open %s: %v", p, err)
		}
		got := make([]byte, len(want))
		if n, err := c.Read(fd, got); err != nil || n != len(want) {
			t.Fatalf("read %s: n=%d err=%v", p, n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("corrupt data in %s", p)
		}
		c.CloseFd(fd)
	}
}

// Two jobs hammer a live server concurrently; the size-fair scheduler
// must serve the 4x larger job ~4x more requests.
func TestLiveSizeFairService(t *testing.T) {
	// A 200µs device emulation keeps the queue saturated, which is the
	// regime where the policy bites (unsaturated servers serve everyone
	// at full speed by opportunity fairness). Under the race detector the
	// clients slow more than the server and can no longer saturate a
	// 200µs device, so the emulated op cost scales up to match.
	opDelay := 200 * time.Microsecond
	if raceEnabled {
		opDelay = 1500 * time.Microsecond
	}
	addrs, stop := startServersDelay(t, 1, policy.SizeFair, opDelay)
	defer stop()

	run := func(job policy.JobInfo, workers int, stopCh chan struct{}, count *int64, mu *sync.Mutex) {
		var wg sync.WaitGroup
		c, err := client.Dial(job, addrs)
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				p := fmt.Sprintf("/%s-%d", job.JobID, w)
				fd, err := c.OpenFd(p, true)
				if err != nil {
					return
				}
				buf := make([]byte, 512)
				for {
					select {
					case <-stopCh:
						return
					default:
					}
					if _, err := c.Write(fd, buf); err != nil {
						return
					}
					mu.Lock()
					*count++
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
	}

	stopCh := make(chan struct{})
	var mu sync.Mutex
	var bigN, smallN int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); run(jobInfo("big", 4), 8, stopCh, &bigN, &mu) }()
	go func() { defer wg.Done(); run(jobInfo("small", 1), 8, stopCh, &smallN, &mu) }()
	time.Sleep(1500 * time.Millisecond)
	close(stopCh)
	wg.Wait()

	mu.Lock()
	b, s := bigN, smallN
	mu.Unlock()
	if b < 100 || s < 10 {
		t.Fatalf("too little traffic to judge: big=%d small=%d", b, s)
	}
	ratio := float64(b) / float64(s)
	if ratio < 2.0 || ratio > 8.0 {
		t.Fatalf("live size-fair ratio = %.2f (big=%d small=%d), want ~4", ratio, b, s)
	}
}

func TestLiveBadFd(t *testing.T) {
	addrs, stop := startServers(t, 1, policy.SizeFair)
	defer stop()
	c, err := client.Dial(jobInfo("j", 1), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Read(99, make([]byte, 1)); err == nil {
		t.Fatal("read on bad fd should fail")
	}
	if err := c.CloseFd(99); err == nil {
		t.Fatal("close on bad fd should fail")
	}
	if _, err := c.OpenFd("/missing", false); err == nil {
		t.Fatal("open of missing file should fail")
	}
	if _, err := c.Lseek(42, 0, 0); err == nil {
		t.Fatal("lseek on bad fd should fail")
	}
}

// Without a backing store nothing deletes staged objects, so the λ loop
// drops unlink tombstones instead of keeping one per unlink.
func TestTombstonesDroppedWithoutBacking(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(ln, Config{Policy: policy.SizeFair, Lambda: 10 * time.Millisecond, Quiet: true})
	go s.Serve()
	defer s.Close()
	c, err := client.Dial(jobInfo("tomb", 1), []string{s.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		p := fmt.Sprintf("/t%d", i)
		f, err := c.Open(p, true)
		if err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
		if err := c.Unlink(p); err != nil {
			t.Fatal(err)
		}
	}
	// Two more gossip rounds mean one whole λ iteration ran after the
	// unlinks (the round counter moves at the start of each).
	r0 := s.node.GossipRounds()
	for s.node.GossipRounds() < r0+2 {
		time.Sleep(time.Millisecond)
	}
	if n := len(s.shard.TakeTombstones()); n != 0 {
		t.Fatalf("%d unlink tombstones kept with no backing store", n)
	}
}
