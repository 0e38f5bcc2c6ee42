// Package client is the ThemisIO client library: the POSIX-compliant
// interface of §4.4 (open/close/read/write/lseek/stat/opendir/readdir/
// unlink) over the wire protocol, with job metadata embedded in every
// request and periodic heartbeats to every server (§4.1). On a real
// deployment these entry points are reached by intercepting the libc
// symbols (override/trampoline, §4.4); here they are called directly —
// the arbitration problem is identical either way.
//
// With multiple servers the client places each path on servers via the
// same consistent hash the servers' file system uses. Files may be
// striped: data is split into stripe-unit chunks laid round-robin
// across the path's stripe set, and reads and writes fan out to the
// stripe servers in parallel, so one client's aggregate bandwidth
// scales with the server count. A server that stops answering is
// removed from the client's ring, so its segment reassigns and I/O
// continues on the survivors (the client half of failover).
package client

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"themisio/internal/chash"
	"themisio/internal/cluster"
	"themisio/internal/fsys"
	"themisio/internal/policy"
	"themisio/internal/transport"
)

// Options tunes a client beyond the defaults. DialOpts validates: a
// negative Stripes, a negative non-sentinel StripeUnit or ConnsPerServer,
// or a positive StripeUnit that is not a power of two are refused with
// an error matching ErrInvalidOptions (zero always means "default" —
// the zero Options value stays valid).
type Options struct {
	// Stripes is the number of servers each file's data spans (clipped
	// to the live server count; zero means 1, the unstriped placement
	// of the seed implementation; negative is refused).
	Stripes int
	// StripeUnit is the bytes written to one server before moving to
	// the next (zero selects DefaultStripeUnit; AutoStripeUnit sizes
	// the unit of each newly created file to the measured
	// bandwidth-delay product instead). Must be a power of two: the
	// round-robin arithmetic and the BDP unit classes both assume it,
	// and the old code silently accepted (then mis-measured) other
	// values.
	StripeUnit int64
	// ConnsPerServer is the connection-pool width per server: how many
	// TCP connections the client multiplexes its traffic to one server
	// over. Writes pin each (file, stripe) to one slot so per-stripe
	// append order is preserved; read chunks spread across all slots.
	// Zero selects DefaultConnsPerServer, AutoConnsPerServer scales
	// with the stripe width, 1 reproduces the old single-connection
	// behavior; other negatives are refused.
	ConnsPerServer int
	// LegacyGob forces the gob wire codec instead of the default
	// length-prefixed binary codec — the escape hatch for servers too
	// old to auto-detect the binary preamble.
	LegacyGob bool
}

// DefaultStripeUnit is the stripe chunk size, matching the server-side
// file system's unit.
const DefaultStripeUnit = 1 << 20

// AutoStripeUnit as Options.StripeUnit sizes each created file's
// stripe unit from the client's measured bandwidth-delay product at
// open time (see bdp.go). The chosen unit is recorded in the file's
// metadata like any explicit one, so readers need no negotiation.
const AutoStripeUnit int64 = -1

// DefaultConnsPerServer is the pool width when Options.ConnsPerServer
// is zero.
const DefaultConnsPerServer = 4

// AutoConnsPerServer as Options.ConnsPerServer sizes each server's pool
// to the stripe width (clamped to [1, maxAutoConns]): a file that fans
// out over k stripes tends to put k concurrent chunk streams on each
// server once several files are in flight.
const AutoConnsPerServer = -1

// maxAutoConns caps the AutoConnsPerServer pool width.
const maxAutoConns = 8

// validateOptions refuses nonsense option values with typed usage
// errors instead of the old silent clamps. Zero always means "default".
func validateOptions(opts Options) error {
	if opts.Stripes < 0 {
		return fmt.Errorf("client: %w: Stripes %d is negative (0 means default)", ErrInvalidOptions, opts.Stripes)
	}
	if opts.StripeUnit < 0 && opts.StripeUnit != AutoStripeUnit {
		return fmt.Errorf("client: %w: StripeUnit %d is negative (0 means default, %d means auto)",
			ErrInvalidOptions, opts.StripeUnit, AutoStripeUnit)
	}
	if u := opts.StripeUnit; u > 0 && u&(u-1) != 0 {
		return fmt.Errorf("client: %w: StripeUnit %d is not a power of two", ErrInvalidOptions, u)
	}
	if cps := opts.ConnsPerServer; cps < 0 && cps != AutoConnsPerServer {
		return fmt.Errorf("client: %w: ConnsPerServer %d is negative (0 means default, %d means auto)",
			ErrInvalidOptions, cps, AutoConnsPerServer)
	}
	return nil
}

// Client is one application process's connection to the burst buffer.
type Client struct {
	job  policy.JobInfo
	ring *chash.Ring
	opts Options
	// autoUnit marks Options.StripeUnit == AutoStripeUnit: each created
	// file's unit comes from bdp's live estimate instead of the option.
	autoUnit bool
	bdp      bdpEstimator

	// connsPerServer is the resolved pool width (defaults and the auto
	// sentinel applied at dial time).
	connsPerServer int

	mu       sync.Mutex
	pools    map[string]*transport.Pool
	draining map[string]bool // members to avoid for new placement
	// unreachable remembers when a dial or call to a member last
	// failed: recorded stripe sets keep naming dead members, and
	// re-dialing one (2s timeout) on every stat would stall the client.
	// ensurePool fast-fails inside the cooldown; a member that comes
	// back (restart, rejoin) is re-dialed after it.
	unreachable map[string]time.Time
	fds         map[int]*fileHandle
	next        int
	seq         atomic.Uint64
	// closed stops ensurePool from registering new pools after Close —
	// the membership refresh dials joiners asynchronously, and a dial
	// completing after teardown would leak its sockets.
	closed atomic.Bool

	hbStop chan struct{}
	hbDone chan struct{}
}

type fileHandle struct {
	path string
	off  int64
	// size is the known global size — the append position for striped
	// writes. It is set at Open and advanced by Write; extensions made
	// through other handles become visible on reopen.
	size    int64
	stripes int      // the file's stripe width (from metadata, not config)
	unit    int64    // the file's stripe unit (from metadata, not config)
	set     []string // the file's recorded stripe servers, in order
	// layoutGen is the layout generation the cached set was read under;
	// every read and write echoes it, so a server that rebalanced the
	// file answers stale-layout instead of serving re-striped bytes, and
	// the handle re-stats and retries (see refreshHandle).
	layoutGen uint64
	// damaged marks a handle whose striped write could not be completed
	// or repaired; further writes would interleave wrongly, so they are
	// refused instead of silently corrupting the file.
	damaged bool
}

// dialConn dials one raw data connection to addr — the pool's dial
// function (transport.Pool owns the multiplexing that the old
// serverConn type used to).
func dialConn(addr string, legacyGob bool) (*transport.Conn, error) {
	raw, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	if legacyGob {
		return transport.NewConn(raw), nil
	}
	return transport.NewBinaryConn(raw), nil
}

// newPool builds the connection pool for addr: slot 0 dials eagerly (so
// an unreachable server fails here, with the same semantics one dial
// had), the rest lazily.
func (c *Client) newPool(addr string) (*transport.Pool, error) {
	legacy := c.opts.LegacyGob
	return transport.NewPool(addr, c.connsPerServer, pipelineWindow,
		func(a string) (*transport.Conn, error) { return dialConn(a, legacy) })
}

// Dial connects to the given servers under the job identity with
// default options (no striping). The client begins heartbeating
// immediately so the servers' job monitors see the job before its
// first I/O.
func Dial(job policy.JobInfo, servers []string) (*Client, error) {
	return DialOpts(job, servers, Options{})
}

// DialOpts connects with explicit striping and pooling options,
// refusing invalid option values (see Options and ErrInvalidOptions).
func DialOpts(job policy.JobInfo, servers []string, opts Options) (*Client, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("client: no servers")
	}
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	if opts.Stripes == 0 {
		opts.Stripes = 1
	}
	autoUnit := opts.StripeUnit == AutoStripeUnit
	if opts.StripeUnit <= 0 {
		// Auto keeps the default as its no-samples fallback and as the
		// unit assumed for legacy files whose metadata records none.
		opts.StripeUnit = DefaultStripeUnit
	}
	switch opts.ConnsPerServer {
	case 0:
		opts.ConnsPerServer = DefaultConnsPerServer
	case AutoConnsPerServer:
		opts.ConnsPerServer = opts.Stripes
		if opts.ConnsPerServer < 1 {
			opts.ConnsPerServer = 1
		}
		if opts.ConnsPerServer > maxAutoConns {
			opts.ConnsPerServer = maxAutoConns
		}
	}
	c := &Client{
		autoUnit:       autoUnit,
		job:            job,
		ring:           chash.New(0),
		opts:           opts,
		connsPerServer: opts.ConnsPerServer,
		pools:          map[string]*transport.Pool{},
		draining:       map[string]bool{},
		unreachable:    map[string]time.Time{},
		fds:            map[int]*fileHandle{},
		next:           3, // fds 0-2 are taken, as in POSIX
		hbStop:         make(chan struct{}),
		hbDone:         make(chan struct{}),
	}
	for _, addr := range servers {
		p, err := c.newPool(addr)
		if err != nil {
			c.closePools()
			return nil, err
		}
		c.pools[addr] = p
		c.ring.Add(addr)
	}
	c.heartbeatAll()
	go c.heartbeatLoop()
	return c, nil
}

func (c *Client) closePools() {
	for _, p := range c.pools {
		p.Close()
	}
}

// Close notifies servers and tears down connections (§4.2: "when a
// client exits, it notifies the ThemisIO servers to destroy the
// corresponding mapping entry").
func (c *Client) Close() {
	c.closed.Store(true)
	close(c.hbStop)
	<-c.hbDone
	// Copy under the lock, send after: a goodbye to a wedged server
	// must not hold c.mu and block every other client method.
	c.mu.Lock()
	pools := make([]*transport.Pool, 0, len(c.pools))
	for _, p := range c.pools {
		pools = append(pools, p)
	}
	c.mu.Unlock()
	for _, p := range pools {
		p.ForEach(func(mc *transport.MuxConn) {
			_ = mc.Send(&transport.Request{Type: transport.MsgBye, Job: c.job})
		})
		p.Close()
	}
}

// Servers returns the addresses the client still considers live.
func (c *Client) Servers() []string { return c.ring.Nodes() }

func (c *Client) heartbeatLoop() {
	defer close(c.hbDone)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-tick.C:
			c.heartbeatAll()
			c.refreshMembership()
		}
	}
}

// refreshMembership asks one live server for the fabric's membership
// view: failed and left members are dropped from the placement ring
// proactively (not just after an I/O error), and draining members are
// remembered so new files avoid them.
func (c *Client) refreshMembership() {
	c.mu.Lock()
	var any *transport.Pool
	for _, p := range c.pools {
		any = p
		break
	}
	c.mu.Unlock()
	if any == nil {
		return
	}
	resp, err := c.poolCall(context.Background(), any, &transport.Request{
		Type: transport.MsgClusterStatus, Seq: c.seq.Add(1), Job: c.job,
	})
	if err != nil {
		c.markFailed(any.Addr())
		return
	}
	for _, m := range cluster.FromRecords(resp.Members) {
		switch m.State {
		case cluster.StateFailed, cluster.StateLeft:
			c.markFailed(m.Addr)
		case cluster.StateDraining:
			c.mu.Lock()
			c.draining[m.Addr] = true
			c.mu.Unlock()
		case cluster.StateAlive:
			c.mu.Lock()
			_, have := c.pools[m.Addr]
			delete(c.draining, m.Addr)
			c.mu.Unlock()
			// A member this client has never dialed is a scale-out join:
			// connect and extend the placement ring, so new files spread
			// onto the added capacity and migrated layouts that name the
			// new member stay reachable. The dial runs off this loop — a
			// member the fabric gossips alive but this client cannot
			// reach (asymmetric partition) must not stall the heartbeat
			// cadence for the healthy servers; ensurePool's cooldown
			// keeps the retries bounded.
			if !have {
				go func(addr string) { _, _ = c.ensurePool(addr) }(m.Addr)
			}
		}
	}
}

// dialCooldown is how long ensureConn fast-fails an address after a
// failed dial or a failed-over connection, so a dead member named in
// recorded stripe sets cannot stall every stat behind a dial timeout.
const dialCooldown = 3 * time.Second

// ensurePool returns the live connection pool for addr, building it on
// first use — recorded stripe sets and the membership view may name
// servers this client was never configured with (members that joined
// after the client dialed in). Recently unreachable members fail fast.
func (c *Client) ensurePool(addr string) (*transport.Pool, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("client: closed")
	}
	c.mu.Lock()
	p, ok := c.pools[addr]
	if ok {
		c.mu.Unlock()
		return p, nil
	}
	if t, bad := c.unreachable[addr]; bad && time.Since(t) < dialCooldown {
		c.mu.Unlock()
		return nil, fmt.Errorf("client: %s recently unreachable", addr)
	}
	c.mu.Unlock()
	p, err := c.newPool(addr)
	if err != nil {
		c.mu.Lock()
		c.unreachable[addr] = time.Now()
		c.mu.Unlock()
		return nil, fmt.Errorf("client: no live connection to %s: %w", addr, err)
	}
	c.mu.Lock()
	delete(c.unreachable, addr)
	if exist, ok := c.pools[addr]; ok {
		c.mu.Unlock()
		p.Close()
		return exist, nil
	}
	if c.closed.Load() {
		// Close ran while we dialed; registering now would leak the
		// sockets past teardown.
		c.mu.Unlock()
		p.Close()
		return nil, fmt.Errorf("client: closed")
	}
	c.pools[addr] = p
	c.mu.Unlock()
	c.ring.Add(addr)
	return p, nil
}

// poolCall performs one control-path exchange on a pool: an already-open
// connection is picked (control traffic never stalls behind a lazy
// dial) and the request rides it under ctx.
func (c *Client) poolCall(ctx context.Context, p *transport.Pool, req *transport.Request) (*transport.Response, error) {
	mc, err := p.Pick()
	if err != nil {
		return nil, err
	}
	return mc.Call(ctx, req)
}

func (c *Client) heartbeatAll() {
	c.mu.Lock()
	pools := make([]*transport.Pool, 0, len(c.pools))
	for _, p := range c.pools {
		pools = append(pools, p)
	}
	c.mu.Unlock()
	for _, p := range pools {
		// Every open connection of the pool heartbeats: the server's job
		// monitor only needs one, but each connection's liveness is only
		// proven by traffic on that connection. The server is failed over
		// when no connection could carry the heartbeat — one bad slot
		// among healthy ones is the pool's problem (cooldown + fallback),
		// not a server failure.
		sent := 0
		p.ForEach(func(mc *transport.MuxConn) {
			if err := mc.Send(&transport.Request{
				Type: transport.MsgHeartbeat,
				Seq:  c.seq.Add(1),
				Job:  c.job,
			}); err == nil {
				sent++
			}
		})
		if sent == 0 {
			c.markFailed(p.Addr())
		}
	}
}

// markFailed drops a server the client could not reach: its whole
// connection pool closes and its ring segment reassigns to the
// survivors, mirroring the fabric's failover. Subsequent placement
// follows the shrunken ring.
func (c *Client) markFailed(addr string) {
	c.mu.Lock()
	p, ok := c.pools[addr]
	if ok {
		delete(c.pools, addr)
	}
	c.unreachable[addr] = time.Now()
	c.mu.Unlock()
	if ok {
		p.Close()
		c.ring.Remove(addr)
	}
}

// stripeSet returns the addresses holding a width-stripes file's data,
// in stripe order, when no recorded set is available (legacy files).
func (c *Client) stripeSet(path string, stripes int) []string {
	if stripes < 1 {
		stripes = 1
	}
	return c.ring.LookupN(path, stripes)
}

// createSet picks the stripe servers for a new file: the ring walk,
// skipping draining members when enough non-draining servers remain.
// The chosen set is recorded in the file metadata, so every later
// reader follows it regardless of how the ring drifts afterwards.
func (c *Client) createSet(path string) []string {
	c.mu.Lock()
	nDraining := len(c.draining)
	c.mu.Unlock()
	want := c.opts.Stripes
	candidates := c.ring.LookupN(path, want+nDraining)
	var out []string
	for _, addr := range candidates {
		c.mu.Lock()
		drain := c.draining[addr]
		c.mu.Unlock()
		if !drain && len(out) < want {
			out = append(out, addr)
		}
	}
	if len(out) == 0 {
		return candidates[:min(want, len(candidates))]
	}
	return out
}

// callAddr sends one request to one server — dialing it on first use —
// failing the server over on a transport-level error. A reply payload
// lands in dst when one is given (see transport.MuxConn.StartInto).
// Context cancellation is not a server failure: the exchange is
// abandoned (the late response's frame still returns to the lease
// pool) and the typed ErrCanceled surfaces instead.
func (c *Client) callAddr(ctx context.Context, addr, path string, req *transport.Request, dst ...[]byte) (*transport.Response, error) {
	p, err := c.ensurePool(addr)
	if err != nil {
		return nil, err
	}
	mc, err := p.Pick()
	if err != nil {
		c.markFailed(addr)
		return nil, err
	}
	req.Seq = c.seq.Add(1)
	req.Job = c.job
	req.Path = path
	start := time.Now()
	resp, err := mc.CallInto(ctx, req, dst)
	if err != nil {
		if isCtxErr(err) {
			return nil, canceled(err)
		}
		c.markFailed(addr)
		return nil, err
	}
	// Feed the bandwidth-delay estimator: a small exchange samples the
	// round trip, a payload-bearing one samples bandwidth.
	bytes := int64(len(req.Data))
	if resp.N > bytes {
		bytes = resp.N
	}
	c.bdp.observe(bytes, time.Since(start))
	return resp, nil
}

// call routes a request to the path's owner server, retrying on the
// reassigned owner when the first choice has failed. Application errors
// (ErrNotExist and friends) surface immediately; only transport-level
// failures trigger re-routing, and cancellation stops the retries.
func (c *Client) call(ctx context.Context, path string, req *transport.Request) (*transport.Response, error) {
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, canceled(err)
		}
		addr, ok := c.ring.Lookup(path)
		if !ok {
			return nil, fmt.Errorf("client: no servers left")
		}
		resp, err := c.callAddr(ctx, addr, path, req)
		if err != nil {
			if isCanceled(err) {
				return nil, err
			}
			lastErr = err
			continue
		}
		if resp.Err != "" {
			return nil, wireErr(resp.Error())
		}
		return resp, nil
	}
	return nil, lastErr
}

// spread runs fn(i) in parallel for every i in [0, n) that want
// accepts (nil accepts all). The last one runs on the calling goroutine,
// so a single target spawns no goroutine and waits on nothing.
func spread(n int, want func(i int) bool, fn func(i int)) {
	last := n - 1
	for want != nil && last >= 0 && !want(last) {
		last--
	}
	if last < 0 {
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < last; i++ {
		if want == nil || want(i) {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				fn(i)
			}(i)
		}
	}
	fn(last)
	wg.Wait()
}

// fanOut sends one request per address in parallel and collects the
// responses in address order. A transport-level error on any server
// fails that server over and reports the error; an application error in
// any response is returned as-is (classified with the exported
// sentinels).
func (c *Client) fanOut(ctx context.Context, addrs []string, path string, mk func() *transport.Request) ([]*transport.Response, error) {
	resps := make([]*transport.Response, len(addrs))
	errs := make([]error, len(addrs))
	spread(len(addrs), nil, func(i int) {
		resps[i], errs[i] = c.callAddr(ctx, addrs[i], path, mk())
	})
	for _, err := range errs {
		if err != nil {
			return resps, err
		}
	}
	for _, r := range resps {
		if r != nil && r.Err != "" {
			return resps, wireErr(r.Error())
		}
	}
	return resps, nil
}

// Open opens an existing file (create=false) or creates it, returning a
// *File handle. Creation places the file on every server of its stripe
// set — recording the stripe width in the file metadata — so striped
// appends land locally and any client can later discover the layout.
// Opening reads the width back from the metadata, so clients with
// different striping configurations interoperate.
func (c *Client) Open(path string, create bool) (*File, error) {
	return c.OpenContext(context.Background(), path, create)
}

// OpenContext is Open honoring ctx: cancellation during the create
// fan-out or the layout stat returns ErrCanceled.
func (c *Client) OpenContext(ctx context.Context, path string, create bool) (*File, error) {
	fd, err := c.open(ctx, path, create)
	if err != nil {
		return nil, err
	}
	return &File{c: c, fd: fd, path: path}, nil
}

// OpenFd is the int-descriptor Open.
//
// Deprecated: use Open (or OpenContext), which returns a *File
// implementing io.ReadWriteSeeker and io.Closer.
func (c *Client) OpenFd(path string, create bool) (int, error) {
	return c.open(context.Background(), path, create)
}

func (c *Client) open(ctx context.Context, path string, create bool) (int, error) {
	var (
		size   int64
		layout layoutInfo
		known  bool
	)
	if create {
		set := c.createSet(path)
		if len(set) == 0 {
			return -1, fmt.Errorf("client: no servers left")
		}
		unit := c.stripeUnit()
		resps, err := c.fanOut(ctx, set, path, func() *transport.Request {
			return &transport.Request{
				Type:       transport.MsgCreate,
				Stripes:    len(set),
				StripeUnit: unit,
				StripeSet:  set,
			}
		})
		if err != nil {
			return -1, err
		}
		size, layout, known = c.createdLayout(path, set, resps)
	}
	if !known {
		var err error
		if size, _, layout, err = c.statFull(ctx, path); err != nil {
			return -1, err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fd := c.next
	c.next++
	c.fds[fd] = &fileHandle{
		path: path, size: size,
		stripes: layout.stripes, unit: layout.unit, set: layout.set,
		layoutGen: layout.gen,
	}
	return fd, nil
}

// createdLayout reads the file's layout and size from the create
// replies, each of which names the entry its server created or found —
// the stat a create would otherwise need. It reports false unless every
// reply records the set that was sent, under one generation and unit,
// and the ring owner is in the set (so statFull would have read the same
// entry); the caller then stats. That covers an existing file with
// another layout, a generation skew mid-migration, a server that fills
// no layout (zero Stripes), a directory, and a draining owner.
func (c *Client) createdLayout(path string, set []string, resps []*transport.Response) (int64, layoutInfo, bool) {
	r0 := resps[0]
	lay := layoutInfo{stripes: len(set), unit: r0.StripeUnit, set: set, gen: r0.LayoutGen}
	if owner, _ := c.ring.Lookup(path); !slices.Contains(set, owner) {
		return 0, lay, false
	}
	sizes := make([]int64, len(resps))
	for i, r := range resps {
		if r.IsDir || r.Stripes != len(set) || r.StripeUnit != lay.unit ||
			r.LayoutGen != lay.gen || !slices.Equal(r.StripeSet, set) {
			return 0, lay, false
		}
		sizes[i] = r.Size
	}
	if lay.unit <= 0 {
		lay.unit = c.opts.StripeUnit
	}
	if len(set) == 1 {
		return sizes[0], lay, true
	}
	return fsys.ConsistentTotal(sizes, lay.unit), lay, true
}

func (c *Client) handle(fd int) (*fileHandle, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.fds[fd]
	if !ok {
		return nil, fmt.Errorf("client: bad file descriptor %d", fd)
	}
	return h, nil
}

// Write appends len(p) bytes to the file (the server store is
// append-structured; sequential writes are the burst-buffer pattern).
// With striping, the data splits into stripe-unit chunks laid
// round-robin over the stripe set; each server's chunks are contiguous
// in its local stripe, so the whole write is at most one parallel
// request per stripe server.
//
// A stale-layout answer means join-time rebalancing is moving (or has
// moved) the file under the handle: the migration seal guarantees that
// either nothing or a contiguous prefix of this write survived the
// cutover, so the handle re-stats, measures the surviving prefix from
// the fresh global size, and appends the remainder under the rewritten
// layout. While the file is still sealed — the copy phase, before any
// cutover — the re-stat returns the old layout and the retry is
// refused again, so the write keeps retrying until the cutover lands
// or writeRetryTimeout passes; on giving up it reports how much of p
// is durably in the file (the handle's size already accounts for it),
// so a POSIX-style short-write retry of the remainder is correct.
func (c *Client) Write(fd int, p []byte) (int, error) {
	h, err := c.handle(fd)
	if err != nil {
		return 0, err
	}
	return c.write(context.Background(), h, p)
}

// write is the striped append shared by the int-fd and *File APIs. The
// seal-window retry budget is writeRetryTimeout, tightened to ctx's own
// deadline when that is sooner; cancellation mid-retry returns
// ErrCanceled with the durable prefix reported like any short write.
func (c *Client) write(ctx context.Context, h *fileHandle, p []byte) (int, error) {
	if h.damaged {
		return 0, fmt.Errorf("client: %s: earlier striped write failed mid-stripe; reopen after repair", h.path)
	}
	err := c.writeOnce(ctx, h, p)
	if err == nil {
		return len(p), nil
	}
	if !retryableLayout(err) {
		return 0, err
	}
	prev := h.size
	deadline := budgetDeadline(ctx, writeRetryTimeout)
	for {
		if cerr := ctx.Err(); cerr != nil {
			return 0, canceled(cerr)
		}
		if rerr := c.refreshHandle(ctx, h); rerr != nil {
			return 0, fmt.Errorf("client: %s: layout changed and re-stat failed: %w", h.path, rerr)
		}
		landed := h.size - prev
		if landed < 0 && !time.Now().After(deadline) {
			// A degraded stat during a stalled partial cutover can
			// under-report the size (an uncommitted target's bytes sit
			// in its invisible pending buffer); that heals when the
			// cutover lands, so keep re-statting instead of condemning
			// the handle.
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if landed < 0 || landed > int64(len(p)) {
			// The size moved by more than this write — another writer
			// raced the handle, which the offset bookkeeping cannot
			// survive (true before this change too).
			h.damaged = true
			return 0, fmt.Errorf("client: %s: size moved by %d during layout change; reopen", h.path, landed)
		}
		if landed == int64(len(p)) {
			h.off = h.size
			return len(p), nil
		}
		err = c.writeOnce(ctx, h, p[landed:])
		if err == nil {
			return len(p), nil
		}
		if !retryableLayout(err) || time.Now().After(deadline) {
			return int(landed), err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// retryableLayout matches the transient conditions of a mid-migration
// file: the typed stale-layout answer, and a not-exist from a server
// the layout names — a commit that has not landed yet keeps the new
// stripe in an invisible pending buffer, so the entry appears briefly
// absent on that holder. A handle is only operated on after a
// successful open, so not-exist mid-operation is a routing transient
// (or a genuine unlink, which surfaces once the retry budget passes).
func retryableLayout(err error) bool {
	return transport.IsStaleLayout(err) || transport.IsNotExist(err)
}

// writeRetryTimeout bounds how long a write blocks waiting for a
// mid-migration file's cutover (the copy phase is policy-throttled, so
// a large file under a small compiled share can hold its seal a
// while).
const writeRetryTimeout = 10 * time.Second

// writeOnce performs one striped append attempt at the handle's
// current layout, advancing the handle bookkeeping on success.
//
// The data plane here is zero-copy: p is sliced into per-server span
// LISTS (segments referencing p directly — never concatenated), each
// segment rides the wire as its own iovec, and each stripe's span goes
// out either pipelined (a window of positional-append chunk RPCs, for
// servers advertising CapAppendAt) or as one ordered append RPC.
func (c *Client) writeOnce(ctx context.Context, h *fileHandle, p []byte) error {
	set := h.set
	if len(set) == 0 {
		set = c.stripeSet(h.path, h.stripes)
	}
	if len(set) == 0 {
		return fmt.Errorf("client: no servers left")
	}
	unit := h.unit
	if unit <= 0 {
		unit = c.opts.StripeUnit
	}
	// Slice p into per-server span lists, preserving order within a
	// server. Each entry aliases p — no copy is made on the client side.
	spans := make([][][]byte, len(set))
	off := h.size
	for done := 0; done < len(p); {
		idx := int(off/unit) % len(set)
		n := int(unit - off%unit)
		if n > len(p)-done {
			n = len(p) - done
		}
		spans[idx] = append(spans[idx], p[done:done+n])
		done += n
		off += int64(n)
	}
	errs := make([]error, len(set))
	spread(len(set), func(i int) bool { return len(spans[i]) > 0 }, func(i int) {
		errs[i] = c.writeStripe(ctx, set[i], h.path, i, spans[i],
			localLen(h.size, i, len(set), unit), h.layoutGen)
	})
	for _, e := range errs {
		if e != nil && isCanceled(e) {
			// Cancellation mid-fan-out leaves the stripe state unknown,
			// and repairing under a dead ctx cannot work; poison the
			// handle (reopen re-learns the durable size) and surface the
			// typed error.
			h.damaged = true
			return e
		}
	}
	// Transport-level (non-retryable) failures dominate the outcome so
	// partial landings go through repair, mirroring fanOut's precedence.
	var err error
	for _, e := range errs {
		if e != nil && !retryableLayout(e) {
			err = e
			break
		}
	}
	if err == nil {
		for _, e := range errs {
			if e != nil {
				err = e
				break
			}
		}
	}
	if err != nil {
		if retryableLayout(err) {
			// No repair across layouts (or against a holder whose commit
			// has not landed): the caller re-stats and retries.
			return err
		}
		// Some stripes may have appended and some not; a blind retry
		// would re-append the landed chunks and silently corrupt the
		// round-robin layout. Repair instead: top each stripe up to its
		// exact target length, and poison the handle if that fails.
		if rerr := c.repairWrite(ctx, h, set, spans, unit); rerr != nil {
			if retryableLayout(rerr) {
				return rerr
			}
			h.damaged = true
			return fmt.Errorf("client: striped write failed and could not be repaired: %w", rerr)
		}
	}
	h.size += int64(len(p))
	h.off = h.size
	return nil
}

// writeChunkTarget is the payload size one pipelined append RPC aims
// for (whole segments are never split); pipelineWindow is the in-flight
// chunk budget each pool connection contributes — the pool's shared
// write and read windows are each pipelineWindow × pool size, so a
// size-1 pool budgets exactly what the old single connection did.
const (
	writeChunkTarget = 512 << 10
	pipelineWindow   = 8
)

// affinityKey maps a (path, stripe index) pair into the pool's slot
// space: the same stripe of the same file always picks the same slot
// (per-stripe send order rides one connection), while consecutive
// stripes of one file land on consecutive slots (the stripes of a file
// that shares servers spread over the pool's paths).
func affinityKey(path string, stripe int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return h.Sum64() + uint64(stripe)
}

// writeStripe sends one server's span of a striped write over the
// stripe's affinity connection in its pool. Servers that have
// advertised CapAppendAt get the pipelined positional-append path: the
// span goes out as a window of chunk RPCs that need no round trip
// between them, and the explicit offsets keep landing order-independent
// under the server's multiplexed worker pool. Anyone else (old servers,
// or a pool whose first response has not yet been seen) gets the whole
// span as one ordered append RPC. Transport-level errors fail the
// server over, as callAddr would.
func (c *Client) writeStripe(ctx context.Context, addr, path string, stripeIdx int, segs [][]byte, startOff int64, layoutGen uint64) error {
	pool, err := c.ensurePool(addr)
	if err != nil {
		return err
	}
	mc, err := pool.SlotFor(affinityKey(path, stripeIdx))
	if err != nil {
		c.markFailed(addr)
		return err
	}
	var appErr, netErr error
	start := time.Now()
	total := spanLen(segs)
	if pool.Caps()&transport.CapAppendAt != 0 {
		appErr, netErr = c.writeStripePipelined(ctx, pool, mc, path, segs, startOff, layoutGen)
	} else {
		resp, cerr := mc.Call(ctx, &transport.Request{
			Type: transport.MsgWrite, Seq: c.seq.Add(1), Job: c.job, Path: path,
			DataSegs: segs, LayoutGen: layoutGen,
		})
		if cerr != nil {
			if isCtxErr(cerr) {
				return canceled(cerr)
			}
			netErr = cerr
		} else {
			if resp.Err != "" {
				appErr = wireErr(resp.Error())
			}
			resp.Release()
		}
	}
	if netErr != nil {
		c.markFailed(addr)
		return netErr
	}
	if appErr == nil {
		c.bdp.observe(total, time.Since(start))
	}
	return appErr
}

// writeStripePipelined issues a stripe's span as windowed positional
// appends on the stripe's affinity connection. The in-flight budget is
// the pool's shared write window (not a per-call constant): tokens are
// taken per chunk and returned per response, so concurrent stripes to
// one server share pipelineWindow × size chunk RPCs between them.
// Application errors (appErr) and transport failures (netErr) are
// reported separately so the caller can fail the server over on the
// latter only; cancellation abandons the in-flight chunks (their frames
// still return to the lease pool) and surfaces as appErr.
func (c *Client) writeStripePipelined(ctx context.Context, pool *transport.Pool, mc *transport.MuxConn, path string, segs [][]byte, startOff int64, layoutGen uint64) (appErr, netErr error) {
	// Group whole segments into chunk RPCs of ~writeChunkTarget bytes.
	// Groups are subslices of segs: still zero-copy.
	type pending struct {
		seq uint64
		ch  chan *transport.Response
	}
	var inflight []pending
	collect := func() {
		pd := inflight[0]
		inflight = inflight[1:]
		resp, ok := <-pd.ch
		pool.ReleaseWrite()
		if !ok {
			if netErr == nil {
				netErr = fmt.Errorf("client: connection lost")
			}
			return
		}
		if resp.Err != "" && appErr == nil {
			appErr = wireErr(resp.Error())
		}
		resp.Release()
	}
	// acquire takes one pool write token, draining our own in-flight
	// chunks while the window is full — progress never depends on a
	// token this call itself is sitting on.
	acquire := func() bool {
		for {
			if pool.TryAcquireWrite() {
				return true
			}
			if len(inflight) == 0 {
				// Every token is held by other calls, which release
				// independently of us; block (honoring ctx).
				if err := pool.AcquireWrite(ctx); err != nil {
					appErr = canceled(err)
					return false
				}
				return true
			}
			collect()
			if appErr != nil || netErr != nil {
				return false
			}
		}
	}
	off := startOff
	for lo := 0; lo < len(segs) && appErr == nil && netErr == nil; {
		if err := ctx.Err(); err != nil {
			appErr = canceled(err)
			break
		}
		hi := lo + 1
		glen := int64(len(segs[lo]))
		for hi < len(segs) && glen+int64(len(segs[hi])) <= writeChunkTarget {
			glen += int64(len(segs[hi]))
			hi++
		}
		if !acquire() {
			break
		}
		seq := c.seq.Add(1)
		ch, err := mc.Start(&transport.Request{
			Type: transport.MsgWrite, Seq: seq, Job: c.job, Path: path,
			DataSegs: segs[lo:hi], AppendAt: true, AppendOff: off,
			LayoutGen: layoutGen,
		})
		if err != nil {
			pool.ReleaseWrite()
			netErr = err
			break
		}
		inflight = append(inflight, pending{seq: seq, ch: ch})
		off += glen
		lo = hi
	}
	if isCanceled(appErr) {
		// Return promptly on cancellation: abandon the waiters instead
		// of draining them (the reader releases the late frames).
		for _, pd := range inflight {
			mc.Forget(pd.seq, pd.ch)
			pool.ReleaseWrite()
		}
		inflight = nil
	}
	for len(inflight) > 0 {
		collect()
	}
	return appErr, netErr
}

// spanLen is the byte length of a segment list.
func spanLen(segs [][]byte) int64 {
	var n int64
	for _, s := range segs {
		n += int64(len(s))
	}
	return n
}

// spanTail returns the last need bytes of a segment list, as a segment
// list still referencing the original backing bytes.
func spanTail(segs [][]byte, need int64) [][]byte {
	if need <= 0 {
		return nil
	}
	var out [][]byte
	for i := len(segs) - 1; i >= 0 && need > 0; i-- {
		s := segs[i]
		if int64(len(s)) >= need {
			s = s[int64(len(s))-need:]
			need = 0
		} else {
			need -= int64(len(s))
		}
		out = append(out, s)
	}
	// Reverse into span order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// refreshHandle re-learns a file's layout and size after a
// stale-layout answer: the cutover of a stripe migration rewrote the
// metadata, and the handle's cached stripe set predates it.
func (c *Client) refreshHandle(ctx context.Context, h *fileHandle) error {
	size, isDir, lay, err := c.statFull(ctx, h.path)
	if err != nil {
		return err
	}
	if isDir {
		return fmt.Errorf("client: %s: replaced by a directory", h.path)
	}
	h.size = size
	h.stripes, h.unit, h.set, h.layoutGen = lay.stripes, lay.unit, lay.set, lay.gen
	return nil
}

// localLen returns how many bytes of a total-byte file laid round-robin
// in unit-sized chunks over nStripes servers land on stripe i. The one
// implementation lives in fsys (the migration planner trims sealed
// stripes with it too); the property test here covers that shared copy.
func localLen(total int64, i, nStripes int, unit int64) int64 {
	return fsys.LocalLen(total, i, nStripes, unit)
}

// repairWrite completes a partially-landed striped write: each stripe
// server reports its local length, and only the missing tail of its
// span is re-sent. Appends are per-server ordered, so the local length
// identifies exactly which chunks landed.
//
// A stripe longer than its target ("over-landed") cannot arise from
// this handle's own protocol: every chunk is sent exactly once per
// attempt, a landed chunk is detected here by its length and never
// re-sent, and a top-up whose ack is lost leaves the stripe exactly at
// target (need becomes 0 on the next inspection), never past it. The
// only producers of surplus bytes are a second writer on the same path
// (outside the handle contract) or a duplicated delivery through some
// future at-least-once transport. Rather than refusing outright, the
// repair reads this write's own span back: byte-identical content
// means every chunk of this write is correctly placed and the surplus
// is not this write's corruption to report; a mismatch is refused as
// before.
func (c *Client) repairWrite(ctx context.Context, h *fileHandle, set []string, spans [][][]byte, unit int64) error {
	target := h.size
	for _, segs := range spans {
		target += spanLen(segs)
	}
	for i, addr := range set {
		resp, err := c.callAddr(ctx, addr, h.path, &transport.Request{Type: transport.MsgStat})
		if err != nil {
			return fmt.Errorf("stripe %s unreachable: %w", addr, err)
		}
		if resp.Err != "" {
			return fmt.Errorf("stripe %s: %w", addr, wireErr(resp.Error()))
		}
		need := localLen(target, i, len(set), unit) - resp.Size
		resp.Release()
		if need > spanLen(spans[i]) {
			return fmt.Errorf("stripe %s has unexpected length %d", addr, resp.Size)
		}
		if need < 0 {
			if err := c.verifySpan(ctx, h, addr, i, len(set), unit, spans[i]); err != nil {
				return fmt.Errorf("stripe %s over-landed to %d: %w", addr, resp.Size, err)
			}
			continue
		}
		if need == 0 {
			continue
		}
		wresp, err := c.callAddr(ctx, addr, h.path, &transport.Request{
			Type: transport.MsgWrite, DataSegs: spanTail(spans[i], need),
			LayoutGen: h.layoutGen,
		})
		if err != nil {
			return fmt.Errorf("stripe %s unreachable: %w", addr, err)
		}
		if wresp.Err != "" {
			return fmt.Errorf("stripe %s: %w", addr, wireErr(wresp.Error()))
		}
		wresp.Release()
	}
	return nil
}

// verifySpan reads back the local span this write addressed on one
// stripe server and compares it to the bytes sent — the over-landed
// repair check.
func (c *Client) verifySpan(ctx context.Context, h *fileHandle, addr string, i, nStripes int, unit int64, want [][]byte) error {
	total := spanLen(want)
	if total == 0 {
		return nil
	}
	start := localLen(h.size, i, nStripes, unit)
	resp, err := c.callAddr(ctx, addr, h.path, &transport.Request{
		Type: transport.MsgRead, Offset: start, Size: total,
	})
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return wireErr(resp.Error())
	}
	defer resp.Release()
	got := resp.Data[:resp.N]
	for _, seg := range want {
		if int64(len(got)) < int64(len(seg)) || !bytes.Equal(got[:len(seg)], seg) {
			return fmt.Errorf("span content mismatch at local offset %d", start)
		}
		got = got[len(seg):]
	}
	return nil
}

// Read reads up to len(p) bytes from the handle's offset. A striped
// read touches each stripe server's locally-contiguous range once, in
// parallel, and reassembles the units into p. A stale-layout answer
// (the file was rebalanced under this handle) re-stats the path and
// retries once against the migrated layout.
func (c *Client) Read(fd int, p []byte) (int, error) {
	h, err := c.handle(fd)
	if err != nil {
		return 0, err
	}
	return c.read(context.Background(), h, p)
}

// read is the striped read shared by the int-fd and *File APIs; the
// stale-layout retry budget is statRetryTimeout, tightened to ctx's own
// deadline when that is sooner.
func (c *Client) read(ctx context.Context, h *fileHandle, p []byte) (int, error) {
	n, err := c.readOnce(ctx, h, p)
	for deadline := budgetDeadline(ctx, statRetryTimeout); err != nil && retryableLayout(err) && !time.Now().After(deadline); {
		// A cutover can land between the re-stat and the retry (the
		// refresh may still see the old layout while the old holders
		// serve sealed reads); a bounded loop rides the window out. The
		// backoff keeps a crowd of handles on one migrating file from
		// turning the window into a stat storm against the servers the
		// policy is throttling.
		time.Sleep(10 * time.Millisecond)
		if cerr := ctx.Err(); cerr != nil {
			return 0, canceled(cerr)
		}
		if rerr := c.refreshHandle(ctx, h); rerr != nil {
			return 0, fmt.Errorf("client: %s: layout changed and re-stat failed: %w", h.path, rerr)
		}
		n, err = c.readOnce(ctx, h, p)
	}
	return n, err
}

// readOnce performs one read attempt at the handle's current layout.
func (c *Client) readOnce(ctx context.Context, h *fileHandle, p []byte) (int, error) {
	set := h.set
	if len(set) == 0 {
		set = c.stripeSet(h.path, h.stripes)
	}
	if len(set) == 0 {
		return 0, fmt.Errorf("client: no servers left")
	}
	if len(set) == 1 {
		resp, err := c.callAddr(ctx, set[0], h.path, &transport.Request{
			Type: transport.MsgRead, Offset: h.off, Size: int64(len(p)),
			LayoutGen: h.layoutGen,
		}, p)
		if err != nil {
			return 0, err
		}
		if resp.Err != "" {
			return 0, wireErr(resp.Error())
		}
		h.off += resp.N
		return int(resp.N), nil
	}
	// The handle's tracked size clamps the read (no per-read stat storm
	// on the path that exists to scale bandwidth); writes through other
	// handles become visible on reopen.
	size := h.size
	want := int64(len(p))
	if h.off >= size {
		return 0, nil
	}
	if want > size-h.off {
		want = size - h.off
	}
	unit := h.unit
	if unit <= 0 {
		unit = c.opts.StripeUnit
	}
	g0, g1 := h.off, h.off+want
	// Each server's touched units are consecutive multiples of the unit
	// in its local stripe, so its byte range is contiguous: track the
	// local [lo,hi) per server and read it once, straight into p.
	lo := make([]int64, len(set))
	hi := make([]int64, len(set))
	for i := range lo {
		lo[i] = -1
	}
	for u := g0 / unit; u <= (g1-1)/unit; u++ {
		idx := int(u) % len(set)
		segStart, segEnd := u*unit, (u+1)*unit
		if segStart < g0 {
			segStart = g0
		}
		if segEnd > g1 {
			segEnd = g1
		}
		base := (u / int64(len(set))) * unit
		llo := base + segStart - u*unit
		lhi := base + segEnd - u*unit
		if lo[idx] < 0 {
			lo[idx] = llo
		}
		hi[idx] = lhi
	}
	errs := make([]error, len(set))
	spread(len(set), func(i int) bool { return lo[i] >= 0 }, func(i int) {
		errs[i] = c.readStripe(ctx, set[i], h.path, i, len(set), unit,
			lo[i], hi[i], h.layoutGen, p, g0)
	})
	for _, e := range errs {
		if e != nil && !retryableLayout(e) {
			return 0, e
		}
	}
	for _, e := range errs {
		if e != nil {
			return 0, e
		}
	}
	h.off += want
	return int(want), nil
}

// readChunk is the payload size one pipelined stripe-read RPC asks for;
// the in-flight budget is the pool's shared read window.
const readChunk = 512 << 10

// readStripe fetches one server's locally-contiguous byte range
// [lo,hi) of a striped read as a window of chunk RPCs — readahead that
// needs no round trip between chunks (reads at explicit offsets are
// idempotent, so unlike writes this pipelining needs no server
// capability) — and each chunk's reply lands straight in p, through
// iovecs that map its local bytes to their global positions. Chunks
// spread over every pool connection (PickSpread): explicit offsets make
// order irrelevant, so the pool's paths carry the socket reads in
// parallel. Transport-level errors fail the server over.
func (c *Client) readStripe(ctx context.Context, addr, path string, idx, nStripes int, unit int64, lo, hi int64, layoutGen uint64, p []byte, g0 int64) error {
	pool, err := c.ensurePool(addr)
	if err != nil {
		return err
	}
	type chunk struct {
		off int64
		n   int64
		seq uint64
		mc  *transport.MuxConn
		ch  chan *transport.Response
	}
	var inflight []chunk
	var appErr, netErr error
	start := time.Now()
	collect := func() {
		ck := inflight[0]
		inflight = inflight[1:]
		resp, ok := <-ck.ch
		pool.ReleaseRead()
		if !ok {
			if netErr == nil {
				netErr = fmt.Errorf("client: connection lost")
			}
			return
		}
		if resp.Err != "" {
			if appErr == nil {
				appErr = wireErr(resp.Error())
			}
			return
		}
		if resp.N < ck.n && appErr == nil {
			appErr = fmt.Errorf("client: short stripe read from %s: %d < %d", addr, resp.N, ck.n)
		}
	}
	acquire := func() bool {
		for {
			if pool.TryAcquireRead() {
				return true
			}
			if len(inflight) == 0 {
				if err := pool.AcquireRead(ctx); err != nil {
					appErr = canceled(err)
					return false
				}
				return true
			}
			collect()
			if appErr != nil || netErr != nil {
				return false
			}
		}
	}
	for off := lo; off < hi && appErr == nil && netErr == nil; {
		if err := ctx.Err(); err != nil {
			appErr = canceled(err)
			break
		}
		n := hi - off
		if n > readChunk {
			n = readChunk
		}
		if !acquire() {
			break
		}
		mc, err := pool.PickSpread()
		if err != nil {
			pool.ReleaseRead()
			netErr = err
			break
		}
		seq := c.seq.Add(1)
		ch, err := mc.StartInto(&transport.Request{
			Type: transport.MsgRead, Seq: seq, Job: c.job, Path: path,
			Offset: off, Size: n, LayoutGen: layoutGen,
		}, stripeIovecs(p, g0, idx, nStripes, unit, off, n))
		if err != nil {
			pool.ReleaseRead()
			netErr = err
			break
		}
		inflight = append(inflight, chunk{off: off, n: n, seq: seq, mc: mc, ch: ch})
		off += n
	}
	if isCanceled(appErr) {
		for _, ck := range inflight {
			ck.mc.Forget(ck.seq, ck.ch)
			pool.ReleaseRead()
		}
		inflight = nil
	}
	for len(inflight) > 0 {
		collect()
	}
	if netErr != nil {
		c.markFailed(addr)
		return netErr
	}
	if appErr == nil {
		c.bdp.observe(hi-lo, time.Since(start))
	}
	return appErr
}

// stripeIovecs returns the spans of p that local bytes [a, a+n) of
// stripe idx belong in, in local order; p's first byte is global offset
// g0. The round-robin inverse: local unit l/unit is global unit
// (l/unit)*nStripes+idx. The range must lie inside p's window, as each
// server's [lo,hi) of a striped read does.
func stripeIovecs(p []byte, g0 int64, idx, nStripes int, unit, a, n int64) [][]byte {
	iov := make([][]byte, 0, n/unit+2)
	for l, end := a, a+n; l < end; {
		next := min((l/unit+1)*unit, end)
		g := (l/unit*int64(nStripes)+int64(idx))*unit + l%unit - g0
		iov = append(iov, p[g:g+next-l])
		l = next
	}
	return iov
}

// Lseek repositions the handle. Whence follows POSIX: 0=set, 1=cur,
// 2=end. A resulting offset below zero is refused with the handle
// unmoved — POSIX EINVAL — instead of the old silent clamp to zero,
// which hid arithmetic bugs in callers by quietly rereading the file
// head.
func (c *Client) Lseek(fd int, offset int64, whence int) (int64, error) {
	h, err := c.handle(fd)
	if err != nil {
		return 0, err
	}
	return c.lseek(context.Background(), h, offset, whence)
}

func (c *Client) lseek(ctx context.Context, h *fileHandle, offset int64, whence int) (int64, error) {
	var next int64
	switch whence {
	case 0:
		next = offset
	case 1:
		next = h.off + offset
	case 2:
		size, _, _, err := c.statFull(ctx, h.path)
		if err != nil {
			return 0, err
		}
		next = size + offset
	default:
		return 0, fmt.Errorf("client: bad whence %d", whence)
	}
	if next < 0 {
		return 0, fmt.Errorf("client: invalid seek to negative offset %d (EINVAL)", next)
	}
	h.off = next
	return h.off, nil
}

// CloseFd releases a file descriptor.
func (c *Client) CloseFd(fd int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.fds[fd]; !ok {
		return fmt.Errorf("client: bad file descriptor %d", fd)
	}
	delete(c.fds, fd)
	return nil
}

// Stat returns size and directory flag. A striped file's size is the
// sum of its stripes.
func (c *Client) Stat(path string) (size int64, isDir bool, err error) {
	return c.StatContext(context.Background(), path)
}

// StatContext is Stat honoring ctx: the internal retry budgets tighten
// to ctx's deadline, and cancellation returns ErrCanceled.
func (c *Client) StatContext(ctx context.Context, path string) (size int64, isDir bool, err error) {
	size, isDir, _, err = c.statFull(ctx, path)
	return size, isDir, err
}

// Layout returns a file's recorded stripe servers (in stripe order) and
// stripe width — the operator's view of where a file's bytes live,
// which rebalancing rewrites as the fabric grows.
func (c *Client) Layout(path string) (set []string, stripes int, err error) {
	_, _, lay, err := c.statFull(context.Background(), path)
	if err != nil {
		return nil, 0, err
	}
	return lay.set, lay.stripes, nil
}

// layout is a file's stripe geometry as recorded in its metadata.
type layoutInfo struct {
	stripes int
	unit    int64
	set     []string
	gen     uint64 // layout generation; echoed on reads and writes
}

// statFull stats the path's ring owner to learn what it is — a
// directory, an unstriped file, or a striped file whose layout the
// creating client recorded in the metadata — then sums stripe sizes
// across the recorded stripe set. If the ring owner has drifted since
// creation and no longer holds the entry, every connected server is
// consulted before giving up (metadata is findable as long as any
// stripe server lives).
//
// The stripe-size fan-out is layout-generation-checked: every stripe
// server must answer under the same generation the layout was read at,
// so a stat can never sum sizes across two different layouts of a
// mid-migration file. A stale answer anywhere — or a not-exist from a
// stripe member after the layout itself was readable, which is a
// target whose commit has not landed yet — re-reads the layout (a
// rebalance cutover lands within a couple of round trips; the first
// retry refreshes membership so freshly joined owners are dialed).
func (c *Client) statFull(ctx context.Context, path string) (size int64, isDir bool, lay layoutInfo, err error) {
	staleDeadline := budgetDeadline(ctx, statRetryTimeout)
	goneDeadline := budgetDeadline(ctx, statGoneRetryTimeout)
	for attempt := 0; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return 0, false, lay, canceled(cerr)
		}
		var transient bool
		size, isDir, lay, transient, err = c.statOnce(ctx, path, false)
		if err == nil || !transient {
			return size, isDir, lay, err
		}
		if transport.IsStaleLayout(err) {
			if time.Now().After(staleDeadline) {
				return size, isDir, lay, err
			}
		} else if time.Now().After(goneDeadline) {
			// A stripe member still answering not-exist past every
			// cutover window holds a genuinely lost stripe (a volatile
			// member crash-restarted empty, say): fall back to summing
			// the members that do hold data — a stripe lost to failover
			// contributes nothing, and the stat must not fail just
			// because the recorded layout names it, or Unlink could
			// never clean such files up.
			size, isDir, lay, _, err = c.statOnce(ctx, path, true)
			return size, isDir, lay, err
		}
		if attempt == 0 {
			c.refreshMembership()
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// statRetryTimeout bounds how long a stat chases a moving layout — the
// seal-to-cutover window of one file's migration, which stretches with
// machine load since the copy is policy-throttled. Only transient
// outcomes retry, so genuine errors still fail on the first attempt.
// statGoneRetryTimeout is the shorter budget for a stripe member
// answering not-exist: a mid-cutover target commits within a couple of
// round trips, while a genuinely lost stripe never will — after it,
// the stat degrades to the tolerant partial sum. Both are defaults: a
// ctx deadline sooner than the budget tightens it (budgetDeadline).
const (
	statRetryTimeout     = 2 * time.Second
	statGoneRetryTimeout = 500 * time.Millisecond
)

// statOnce is one layout read + generation-checked stripe-size sum.
// transient marks outcomes worth re-reading the layout for: a
// stale-layout answer anywhere, or a not-exist from the stripe
// fan-out (the layout was just readable, so the member is a
// mid-cutover target, not a deleted file).
func (c *Client) statOnce(ctx context.Context, path string, tolerateMissing bool) (size int64, isDir bool, lay layoutInfo, transient bool, err error) {
	resp, err := c.call(ctx, path, &transport.Request{Type: transport.MsgStat})
	if err != nil {
		if isCanceled(err) {
			return 0, false, lay, false, err
		}
		var stale bool
		if resp, stale = c.statAny(ctx, path); resp == nil {
			// A stale answer anywhere means the entry is moving: the owner
			// that said not-exist may be a target whose commit has not
			// landed yet, so the outcome is worth a retry.
			return 0, false, lay, stale || transport.IsStaleLayout(err), err
		}
	}
	if resp.IsDir {
		return 0, true, layoutInfo{stripes: 1}, false, nil
	}
	lay.stripes, lay.unit, lay.set, lay.gen = resp.Stripes, resp.StripeUnit, resp.StripeSet, resp.LayoutGen
	if lay.stripes < 1 {
		lay.stripes = 1
	}
	if lay.unit <= 0 {
		lay.unit = c.opts.StripeUnit
	}
	if len(lay.set) == 0 {
		lay.set = c.stripeSet(path, lay.stripes)
	}
	if len(lay.set) == 1 {
		return resp.Size, false, lay, false, nil
	}
	// Sum sizes over the reachable stripe servers only: a stripe lost
	// to failover contributes nothing (its bytes are gone), and the
	// stat itself must not fail just because the layout names a dead
	// member — Unlink needs the layout to clean such files up. Members
	// this client has not dialed yet (a migrated layout naming a
	// freshly joined server) are connected on demand.
	var live []string
	for _, addr := range lay.set {
		if _, err := c.ensurePool(addr); err == nil {
			live = append(live, addr)
		}
	}
	if tolerateMissing {
		// Degraded mode (statFull's not-exist budget ran out): sum the
		// members that do hold the entry, skipping the rest — the
		// pre-rebalance partial-loss semantics.
		for _, addr := range live {
			r, err := c.callAddr(ctx, addr, path, &transport.Request{Type: transport.MsgStat})
			if err != nil || r.Err != "" {
				continue
			}
			size += r.Size
		}
		return size, false, lay, false, nil
	}
	resps, err := c.fanOut(ctx, live, path, func() *transport.Request {
		return &transport.Request{Type: transport.MsgStat, LayoutGen: lay.gen}
	})
	if err != nil {
		transient := transport.IsStaleLayout(err) || transport.IsNotExist(err)
		return 0, false, lay, transient, err
	}
	if len(live) == len(lay.set) {
		// The authoritative size is the consistent round-robin prefix of
		// the per-stripe sizes, not their raw sum: a write racing a
		// migration seal can land a chunk on a not-yet-frozen stripe
		// while an earlier chunk is refused, and counting that orphan
		// would make Write's surviving-prefix arithmetic resume past a
		// hole — acknowledging bytes the cutover trim then discards.
		sizes := make([]int64, len(resps))
		for i, r := range resps {
			sizes[i] = r.Size
		}
		return fsys.ConsistentTotal(sizes, lay.unit), false, lay, false, nil
	}
	for _, r := range resps {
		size += r.Size
	}
	return size, false, lay, false, nil
}

// statAny broadcasts a stat to every connected server and returns the
// first hit — the fallback path for entries the drifted ring owner no
// longer holds. With no hit, stale reports whether any server answered
// stale-layout (a moved marker: the entry is mid-migration, not gone).
func (c *Client) statAny(ctx context.Context, path string) (*transport.Response, bool) {
	stale := false
	for _, p := range c.sortedPools() {
		resp, err := c.poolCall(ctx, p, &transport.Request{
			Type: transport.MsgStat, Seq: c.seq.Add(1), Job: c.job, Path: path,
		})
		if err != nil {
			continue
		}
		if resp.Err == "" {
			return resp, false
		}
		stale = stale || transport.IsStaleLayout(resp.Error())
	}
	return nil, stale
}

// sortedPools snapshots the live pools in address order — the iteration
// every broadcast-style method (Mkdir/Readdir/Flush, SetPolicy,
// ShareReports) shares.
func (c *Client) sortedPools() []*transport.Pool {
	c.mu.Lock()
	pools := make([]*transport.Pool, 0, len(c.pools))
	for _, p := range c.pools {
		pools = append(pools, p)
	}
	c.mu.Unlock()
	sort.Slice(pools, func(i, j int) bool { return pools[i].Addr() < pools[j].Addr() })
	return pools
}

// broadcast sends the request to every server and collects responses.
// Directory metadata is replicated on all servers so that any server can
// validate parents locally, matching §4.3's "directories and files are
// stored as files" with directory content spread across servers.
func (c *Client) broadcast(ctx context.Context, path string, mk func() *transport.Request) ([]*transport.Response, error) {
	var out []*transport.Response
	for _, p := range c.sortedPools() {
		req := mk()
		req.Seq = c.seq.Add(1)
		req.Job = c.job
		req.Path = path
		resp, err := c.poolCall(ctx, p, req)
		if err != nil {
			if isCtxErr(err) {
				return out, canceled(err)
			}
			c.markFailed(p.Addr())
			return out, err
		}
		out = append(out, resp)
	}
	return out, nil
}

// Flush asks every connected server to stage out all dirty data to its
// backing store before returning — the client-visible durability
// barrier (an application calls it after writing a checkpoint it cannot
// afford to lose). Servers without a backing store reply immediately.
func (c *Client) Flush() error {
	return c.FlushContext(context.Background())
}

// FlushContext is Flush honoring ctx.
func (c *Client) FlushContext(ctx context.Context) error {
	resps, err := c.broadcast(ctx, "/", func() *transport.Request {
		return &transport.Request{Type: transport.MsgFlush}
	})
	if err != nil {
		return err
	}
	for _, r := range resps {
		if r.Err != "" {
			return wireErr(r.Error())
		}
	}
	return nil
}

// SetPolicy installs a new cluster-wide sharing policy through any
// live server — the client face of the live hot-swap. The contacted
// member validates the policy string, bumps the cluster policy epoch,
// and gossip carries the new version to every other member; each
// server recompiles at its next λ with no restart and no dropped
// request. Returns the canonical policy string and the new epoch.
func (c *Client) SetPolicy(policyStr string) (string, uint64, error) {
	var lastErr error = fmt.Errorf("client: no servers left")
	for _, p := range c.sortedPools() {
		resp, err := c.poolCall(context.Background(), p, &transport.Request{
			Type: transport.MsgPolicySet, Seq: c.seq.Add(1), Job: c.job,
			PolicyStr: policyStr,
		})
		if err != nil {
			c.markFailed(p.Addr())
			lastErr = err
			continue
		}
		if resp.Err != "" {
			// An application error (an unparseable policy string) is the
			// same on every member; do not retry it around the ring.
			return "", 0, wireErr(resp.Error())
		}
		return resp.PolicyStr, resp.PolicyEpoch, nil
	}
	return "", 0, lastErr
}

// ShareReport is one server's per-entity fairness report: the policy
// it is enforcing (string + applied cluster policy epoch) and each
// sharing entity's compiled token share versus measured serviced-byte
// share over the server's λ-windowed horizon.
type ShareReport struct {
	Addr        string
	Policy      string
	PolicyEpoch uint64
	Shares      []transport.ShareRecord
}

// ShareReports collects every connected server's fairness report, in
// address order — the raw material of `themisctl policy status` and of
// swap-convergence checks (aggregate Bytes per entity across servers
// for the cluster-wide measured share).
func (c *Client) ShareReports() ([]ShareReport, error) {
	var out []ShareReport
	for _, p := range c.sortedPools() {
		resp, err := c.poolCall(context.Background(), p, &transport.Request{
			Type: transport.MsgShareReport, Seq: c.seq.Add(1), Job: c.job,
		})
		if err != nil {
			c.markFailed(p.Addr())
			return out, err
		}
		if resp.Err != "" {
			return out, wireErr(resp.Error())
		}
		out = append(out, ShareReport{
			Addr: p.Addr(), Policy: resp.PolicyStr,
			PolicyEpoch: resp.PolicyEpoch, Shares: resp.Shares,
		})
	}
	return out, nil
}

// Mkdir creates a directory (replicated on every server).
func (c *Client) Mkdir(path string) error {
	return c.MkdirContext(context.Background(), path)
}

// MkdirContext is Mkdir honoring ctx.
func (c *Client) MkdirContext(ctx context.Context, path string) error {
	resps, err := c.broadcast(ctx, path, func() *transport.Request {
		return &transport.Request{Type: transport.MsgMkdir}
	})
	if err != nil {
		return err
	}
	for _, r := range resps {
		if r.Err != "" {
			return wireErr(r.Error())
		}
	}
	return nil
}

// Readdir lists a directory, merging the children recorded on each
// server (a file's directory entry lives on the file's owner server).
// A server that answers not-exist contributes nothing instead of
// failing the merge: directory replication is opportunistic — a member
// that joined after the mkdir legitimately lacks the entry until
// something migrates into it. Only not-exist is tolerated (any other
// error, like not-a-directory, signals real divergence and surfaces),
// and the listing fails when every server answers not-exist (a
// genuinely missing directory).
func (c *Client) Readdir(path string) ([]string, error) {
	return c.ReaddirContext(context.Background(), path)
}

// ReaddirContext is Readdir honoring ctx.
func (c *Client) ReaddirContext(ctx context.Context, path string) ([]string, error) {
	resps, err := c.broadcast(ctx, path, func() *transport.Request {
		return &transport.Request{Type: transport.MsgReaddir}
	})
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var names []string
	var firstErr error
	ok := false
	for _, r := range resps {
		if r.Err != "" {
			if !transport.IsNotExist(r.Error()) {
				return nil, wireErr(r.Error())
			}
			if firstErr == nil {
				firstErr = wireErr(r.Error())
			}
			continue
		}
		ok = true
		for _, n := range r.Names {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	if !ok && firstErr != nil {
		return nil, firstErr
	}
	sort.Strings(names)
	return names, nil
}

// Unlink removes a file (on its stripe servers) or a directory (on all).
// Stripe servers that have failed over are skipped: their copy died with
// them, and refusing to unlink a partially-lost file would leave its
// stale layout squatting on the name forever.
func (c *Client) Unlink(path string) error {
	return c.UnlinkContext(context.Background(), path)
}

// UnlinkContext is Unlink honoring ctx. The ring owner unlinks first and
// its reply names the removed entry's layout, so the remaining holders
// are known without a stat. When the owner does not hold the entry (the
// ring drifted since creation, or a migration left a moved marker there)
// or cannot be reached, the layout comes from statFull instead.
func (c *Client) UnlinkContext(ctx context.Context, path string) error {
	if err := ctx.Err(); err != nil {
		return canceled(err)
	}
	owner, ok := c.ring.Lookup(path)
	if !ok {
		return fmt.Errorf("client: no servers left")
	}
	resp, err := c.callAddr(ctx, owner, path, &transport.Request{Type: transport.MsgUnlink})
	if err == nil && resp.Err == "" {
		set := resp.StripeSet
		if len(set) == 0 {
			set = c.stripeSet(path, resp.Stripes)
		}
		return c.unlinkRest(ctx, path, owner, resp.IsDir, set)
	}
	if isCanceled(err) {
		return err
	}
	if err == nil {
		if werr := resp.Error(); !transport.IsNotExist(werr) && !transport.IsStaleLayout(werr) {
			return wireErr(werr)
		}
	}
	_, isDir, lay, err := c.statFull(ctx, path)
	if err != nil {
		return err
	}
	return c.unlinkRest(ctx, path, "", isDir, lay.set)
}

// unlinkRest unlinks path on every holder but done (the ring owner that
// already removed its copy; "" when none has): a file's reachable
// stripe servers, or every connected server for a directory.
func (c *Client) unlinkRest(ctx context.Context, path, done string, isDir bool, set []string) error {
	var targets []string
	if isDir {
		for _, p := range c.sortedPools() {
			if p.Addr() != done {
				targets = append(targets, p.Addr())
			}
		}
	} else {
		for _, addr := range set {
			if addr == done {
				continue
			}
			if _, err := c.ensurePool(addr); err == nil {
				targets = append(targets, addr)
			}
		}
		if len(targets) == 0 && done == "" {
			return fmt.Errorf("client: no live stripe servers hold %s", path)
		}
	}
	_, err := c.fanOut(ctx, targets, path, func() *transport.Request {
		return &transport.Request{Type: transport.MsgUnlink}
	})
	return err
}
