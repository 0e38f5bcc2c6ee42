package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"slices"
	"testing"

	"themisio/internal/server"
	"themisio/internal/transport"
)

// served sums the scheduled requests the servers have executed.
func served(srvs []*server.Server) int64 {
	var n int64
	for _, s := range srvs {
		n += s.Served()
	}
	return n
}

// countServed runs fn and returns how many server requests it cost.
func countServed(t *testing.T, srvs []*server.Server, fn func() error) int64 {
	t.Helper()
	before := served(srvs)
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return served(srvs) - before
}

// Create and unlink replies carry the entry's layout, so neither call
// needs a stat round trip: open(create) costs one request per stripe
// server and unlink one per holder. A width-1 small-ops loop (create,
// write, stat, read, close, unlink) is five requests.
func TestRequestsPerCall(t *testing.T) {
	srvs := launchServers(t, 2, nil)
	addrs := []string{srvs[0].Addr(), srvs[1].Addr()}
	for _, width := range []int{1, 2} {
		c, err := DialOpts(testJob("rpc"), addrs, Options{Stripes: width, StripeUnit: 1024})
		if err != nil {
			t.Fatal(err)
		}
		var f *File
		if n := countServed(t, srvs, func() (err error) {
			f, err = c.Open("/rpc.bin", true)
			return err
		}); n != int64(width) {
			t.Errorf("width %d: open(create) cost %d requests, want %d", width, n, width)
		}
		if n := countServed(t, srvs, func() error { return c.Unlink("/rpc.bin") }); n != int64(width) {
			t.Errorf("width %d: unlink cost %d requests, want %d", width, n, width)
		}
		if _, _, err := c.Stat("/rpc.bin"); !errors.Is(err, ErrNotExist) {
			t.Fatalf("width %d: stat after unlink = %v, want not-exist", width, err)
		}
		_ = f.Close()
		c.Close()
	}

	c, err := Dial(testJob("loop"), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n := countServed(t, srvs, func() error {
		f, err := c.Open("/loop.bin", true)
		if err != nil {
			return err
		}
		if _, err := f.Write(make([]byte, 4096)); err != nil {
			return err
		}
		if _, _, err := c.Stat("/loop.bin"); err != nil {
			return err
		}
		if _, err := f.Seek(0, 0); err != nil {
			return err
		}
		if _, err := io.ReadFull(f, make([]byte, 4096)); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return c.Unlink("/loop.bin")
	}); n != 5 {
		t.Errorf("width-1 small-ops loop cost %d requests, want 5", n)
	}
}

// The handle built from create replies must match what a stat reports:
// size (the consistent round-robin total for striped files), stripe
// width, unit, recorded set and layout generation — for fresh files and
// for re-opening an existing non-empty one with create=true, over random
// widths, units and sizes.
func TestCreatedLayoutMatchesStat(t *testing.T) {
	srvs := launchServers(t, 3, nil)
	var addrs []string
	for _, s := range srvs {
		addrs = append(addrs, s.Addr())
	}
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	for trial := 0; trial < 24; trial++ {
		width := 1 + rng.Intn(3)
		unit := int64(512) << rng.Intn(4)
		c, err := DialOpts(testJob("prop"), addrs, Options{Stripes: width, StripeUnit: unit})
		if err != nil {
			t.Fatal(err)
		}
		path := "/prop" + string(rune('a'+trial))
		for round := 0; round < 3; round++ {
			var f *File
			if n := countServed(t, srvs, func() (err error) {
				f, err = c.Open(path, true)
				return err
			}); n != int64(width) {
				t.Fatalf("trial %d round %d: open(create) cost %d requests, want %d (fell back to a stat)", trial, round, n, width)
			}
			h, err := c.handle(f.fd)
			if err != nil {
				t.Fatal(err)
			}
			size, _, lay, err := c.statFull(ctx, path)
			if err != nil {
				t.Fatal(err)
			}
			if h.size != size || h.stripes != lay.stripes || h.unit != lay.unit ||
				h.layoutGen != lay.gen || !slices.Equal(h.set, lay.set) {
				t.Fatalf("trial %d round %d: handle {size %d stripes %d unit %d gen %d set %v} != stat {size %d stripes %d unit %d gen %d set %v}",
					trial, round, h.size, h.stripes, h.unit, h.layoutGen, h.set,
					size, lay.stripes, lay.unit, lay.gen, lay.set)
			}
			if _, err := f.Write(make([]byte, rng.Intn(5*int(unit)))); err != nil {
				t.Fatal(err)
			}
			_ = f.Close()
		}
		if err := c.Unlink(path); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
}

// Opening an existing file from a client with another stripe config:
// the create replies disagree, so the handle falls back to the stat and
// follows the recorded layout.
func TestCreateExistingOtherLayout(t *testing.T) {
	addrs := startServers(t, 3)
	narrow, err := DialOpts(testJob("narrow"), addrs, Options{Stripes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer narrow.Close()
	want := bytes.Repeat([]byte("recorded-layout/"), 512)
	f, err := narrow.Open("/mixed.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(want); err != nil {
		t.Fatal(err)
	}
	recorded, _, err := narrow.Layout("/mixed.bin")
	if err != nil {
		t.Fatal(err)
	}

	wide, err := DialOpts(testJob("wide"), addrs, Options{Stripes: 3, StripeUnit: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer wide.Close()
	g, err := wide.Open("/mixed.bin", true)
	if err != nil {
		t.Fatal(err)
	}
	h, err := wide.handle(g.fd)
	if err != nil {
		t.Fatal(err)
	}
	if h.stripes != 1 || !slices.Equal(h.set, recorded) || h.size != int64(len(want)) {
		t.Fatalf("handle {stripes %d set %v size %d}, want the recorded {1 %v %d}",
			h.stripes, h.set, h.size, recorded, len(want))
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(g, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read through the fallback handle: err=%v, equal=%v", err, bytes.Equal(got, want))
	}
}

// Re-opening an existing file while its ring owner drains: the create
// skips the owner, so the other server creates a fresh empty entry and
// its reply alone would name that one. The owner is outside the set
// sent, so the handle comes from the stat and opens the existing file.
func TestCreateOwnerDraining(t *testing.T) {
	addrs := startServers(t, 2)
	c, err := Dial(testJob("drainopen"), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const path = "/kept.bin"
	f, err := c.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	owner, _ := c.ring.Lookup(path)
	c.mu.Lock()
	c.draining[owner] = true
	c.mu.Unlock()
	g, err := c.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.handle(g.fd)
	if err != nil {
		t.Fatal(err)
	}
	if h.size != 4096 || !slices.Equal(h.set, []string{owner}) {
		t.Fatalf("handle {size %d set %v}, want the existing file {4096 [%s]}", h.size, h.set, owner)
	}
}

// A file whose recorded set excludes the ring owner (created while the
// owner was draining): the owner answers not-exist to the unlink, and
// the stat-then-fan-out fallback removes every stripe.
func TestUnlinkOwnerOutsideSet(t *testing.T) {
	addrs := startServers(t, 3)
	c, err := DialOpts(testJob("drain"), addrs, Options{Stripes: 2, StripeUnit: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const path = "/moved.bin"
	owner, _ := c.ring.Lookup(path)
	c.mu.Lock()
	c.draining[owner] = true
	c.mu.Unlock()
	f, err := c.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	delete(c.draining, owner)
	c.mu.Unlock()
	set, _, err := c.Layout(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || slices.Contains(set, owner) {
		t.Fatalf("recorded set %v should be two servers without the owner %s", set, owner)
	}
	if err := c.Unlink(path); err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		r, err := c.callAddr(context.Background(), addr, path, &transport.Request{Type: transport.MsgStat})
		if err != nil {
			t.Fatal(err)
		}
		if !transport.IsNotExist(r.Error()) {
			t.Fatalf("%s still answers %q for %s after unlink", addr, r.Err, path)
		}
	}
}

// An empty directory is replicated on every server; unlink removes
// every replica (the owner first, then the rest).
func TestUnlinkDirEverywhere(t *testing.T) {
	addrs := startServers(t, 3)
	c, err := Dial(testJob("rmdir"), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := c.Unlink("/d"); err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		r, err := c.callAddr(context.Background(), addr, "/d", &transport.Request{Type: transport.MsgStat})
		if err != nil {
			t.Fatal(err)
		}
		if !transport.IsNotExist(r.Error()) {
			t.Fatalf("%s still answers %q for /d after unlink", addr, r.Err)
		}
	}
	if err := c.Mkdir("/d"); err != nil {
		t.Fatalf("mkdir after rmdir: %v", err)
	}
}

// The rebalance race behind a reader's open-ENOENT: the ring owner has
// no entry yet (its commit has not landed) and the old holder answers
// stale-layout from its moved marker. The stat must call that
// transient, so statFull retries instead of reporting not-exist.
func TestStatMovedIsTransient(t *testing.T) {
	addrs := startServers(t, 2)
	c, err := Dial(testJob("moved"), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const path = "/moving.bin"
	owner, _ := c.ring.Lookup(path)
	old := addrs[0]
	if old == owner {
		old = addrs[1]
	}
	ctx := context.Background()
	call := func(req *transport.Request) *transport.Response {
		t.Helper()
		r, err := c.callAddr(ctx, old, path, req)
		if err == nil && r.Err != "" {
			err = r.Error()
		}
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	call(&transport.Request{Type: transport.MsgCreate, Stripes: 1, StripeSet: []string{old}})
	sealed := call(&transport.Request{Type: transport.MsgMigrate, MigrateOp: transport.MigrateSeal})
	if r := call(&transport.Request{Type: transport.MsgMigrate, MigrateOp: transport.MigrateDrop, Gen: sealed.Gen}); r.N != 1 {
		t.Fatal("the drop left no moved marker")
	}
	_, _, _, transient, err := c.statOnce(ctx, path, false)
	if !errors.Is(err, ErrNotExist) || !transient {
		t.Fatalf("statOnce = (transient %v, %v), want a transient not-exist", transient, err)
	}
}
