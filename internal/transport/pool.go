// Per-server connection pools. One TCP connection per (client, server)
// serializes every stripe of a job through a single kernel socket lock;
// a small pool multiplies the paths without giving up the ordering that
// positional appends rely on. The pick discipline carries the
// correctness argument:
//
//   - SlotFor(key) is the stripe-affinity pick: a stable key (the
//     client hashes path and stripe index) always lands on the same
//     slot, so one file's chunk stream for one stripe rides one
//     connection in send order. The server's AppendAtGen reorder buffer
//     then never parks a copy for pool-induced reordering, and the BDP
//     estimator's samples stay coherent per network path.
//   - PickSpread() rotates over every slot: reads at explicit offsets
//     are idempotent and order-free, so read chunks fan out across all
//     connections for parallel socket reads and parallel decode.
//   - Pick() rotates over the already-open connections only, so
//     control traffic (stats, broadcasts) never forces a lazy dial.
//
// Slot 0 is dialed when the pool is built — pool construction keeps the
// dial-error semantics a single connection had — and every other slot
// dials on first use. A slot whose dial fails (or whose connection
// dies) cools down before it is retried, and picks fall back to a
// healthy slot in the meantime; losing the whole server is the owner's
// call (the client tears the pool down as it used to tear one
// connection down).
//
// Capabilities are negotiated once per pool: every response on any slot
// stamps the shared caps word, so a freshly dialed slot N inherits what
// slot 0 already learned and pipelines immediately.
package transport

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// SlotCooldown is how long a pool slot fast-fails after a failed dial
// or a died connection before it is retried. Mirrors the client's
// whole-server dial cooldown, scoped to one slot.
const SlotCooldown = 3 * time.Second

// MuxConn multiplexes concurrent request/response exchanges over one
// connection: one reader goroutine, waiters keyed by Seq. It is the
// per-connection half of a Pool, split out so the client's pipelined
// stripe I/O can start requests without waiting.
type MuxConn struct {
	conn *Conn
	// caps is the pool-shared capability word; any response carrying a
	// non-zero Caps stamps it (heartbeat acks included, so negotiation
	// usually completes before the first data RPC).
	caps *atomic.Uint64
	dead atomic.Bool

	mu   sync.Mutex
	wait map[uint64]waiter
	err  error
}

// waiter is one started exchange: the channel its response is
// delivered on and, when registered with StartInto, the iovecs its
// reply payload lands in.
type waiter struct {
	ch  chan *Response
	dst [][]byte
}

func newMuxConn(conn *Conn, caps *atomic.Uint64) *MuxConn {
	mc := &MuxConn{conn: conn, caps: caps, wait: map[uint64]waiter{}}
	go mc.reader()
	return mc
}

// reader claims each frame's waiter as soon as the frame's head is
// parsed — under mc.mu, once per frame — so a waiter's destination
// receives the payload straight from the socket. A claimed waiter is
// out of the map: it always gets the response, or a closed channel if
// the connection dies mid-frame.
func (mc *MuxConn) reader() {
	var cur waiter
	var claimed bool
	claim := func(seq uint64) [][]byte {
		mc.mu.Lock()
		cur, claimed = mc.wait[seq]
		delete(mc.wait, seq)
		mc.mu.Unlock()
		return cur.dst
	}
	for {
		claimed = false
		resp, err := mc.conn.recvResponseInto(claim)
		if err != nil {
			mc.dead.Store(true)
			mc.mu.Lock()
			mc.err = err
			if claimed {
				close(cur.ch)
			}
			for _, w := range mc.wait {
				close(w.ch)
			}
			mc.wait = map[uint64]waiter{}
			mc.mu.Unlock()
			return
		}
		if resp.Caps != 0 && mc.caps != nil {
			mc.caps.Store(resp.Caps)
		}
		if claimed {
			cur.ch <- resp
		} else {
			// No waiter (caller torn down mid-exchange): the leased
			// frame goes straight back to the pool.
			resp.Release()
		}
	}
}

// Start registers req's response channel and puts the request on the
// wire without waiting — the building block of pipelined stripe I/O.
// The caller must receive exactly once from the returned channel (or
// Forget the exchange); a closed channel means the connection died.
func (mc *MuxConn) Start(req *Request) (chan *Response, error) { return mc.StartInto(req, nil) }

// StartInto is Start with a destination for the reply payload: the
// reader lands the payload bytes in dst, in order, and delivers a
// Response without Data. dst belongs to the exchange until the
// response (or the closed channel) has been received, or Forget has
// returned. A reply whose payload exceeds dst fails the connection.
// A nil dst is Start.
func (mc *MuxConn) StartInto(req *Request, dst [][]byte) (chan *Response, error) {
	ch := make(chan *Response, 1)
	mc.mu.Lock()
	if mc.err != nil {
		err := mc.err
		mc.mu.Unlock()
		return nil, err
	}
	mc.wait[req.Seq] = waiter{ch: ch, dst: dst}
	mc.mu.Unlock()
	if err := mc.conn.SendRequest(req); err != nil {
		mc.mu.Lock()
		delete(mc.wait, req.Seq)
		mc.mu.Unlock()
		return nil, err
	}
	return ch, nil
}

// Forget abandons a started exchange (context cancellation). A waiter
// the reader has not claimed yet is deregistered, so the late response
// goes back to the lease pool. One the reader already claimed may be
// landing its payload in the caller's buffers right now: Forget waits
// for that frame to finish (or the connection to die) and releases the
// response, so the buffers are the caller's again when it returns.
func (mc *MuxConn) Forget(seq uint64, ch chan *Response) {
	mc.mu.Lock()
	_, pending := mc.wait[seq]
	delete(mc.wait, seq)
	mc.mu.Unlock()
	if pending {
		return
	}
	if resp, ok := <-ch; ok {
		resp.Release()
	}
}

// Call performs one request/response exchange, honoring ctx: on
// cancellation the waiter is abandoned (the late response's frame still
// returns to the lease pool) and ctx.Err() is returned.
func (mc *MuxConn) Call(ctx context.Context, req *Request) (*Response, error) {
	return mc.CallInto(ctx, req, nil)
}

// CallInto is Call with a destination for the reply payload (see
// StartInto). On cancellation it returns only once dst is no longer
// being written.
func (mc *MuxConn) CallInto(ctx context.Context, req *Request, dst [][]byte) (*Response, error) {
	if ctx != nil && ctx.Err() != nil {
		// Already canceled: send nothing. Otherwise a fast reply could
		// win the select below and the call would succeed.
		return nil, ctx.Err()
	}
	ch, err := mc.StartInto(req, dst)
	if err != nil {
		return nil, err
	}
	if ctx == nil || ctx.Done() == nil {
		resp, ok := <-ch
		if !ok {
			return nil, fmt.Errorf("transport: connection lost")
		}
		return resp, nil
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("transport: connection lost")
		}
		return resp, nil
	case <-ctx.Done():
		mc.Forget(req.Seq, ch)
		return nil, ctx.Err()
	}
}

// Send fires a request without expecting to wait on its response
// (heartbeats, goodbyes); any response that does come back is consumed
// by the reader (and still stamps the pool's caps).
func (mc *MuxConn) Send(req *Request) error { return mc.conn.SendRequest(req) }

// Dead reports whether the connection's reader has exited.
func (mc *MuxConn) Dead() bool { return mc.dead.Load() }

// Close closes the underlying connection; the reader exits and fails
// every waiter.
func (mc *MuxConn) Close() { mc.conn.Close() }

// poolSlot is one lazily dialed connection of a Pool. The slot mutex
// serializes dialing of this slot only; picks on other slots proceed.
type poolSlot struct {
	mu       sync.Mutex
	mc       atomic.Pointer[MuxConn]
	badUntil atomic.Int64 // unixnano; cooldown after a failed dial or death
}

// Pool is a fixed-width set of connections to one server.
type Pool struct {
	addr string
	size int
	dial func(addr string) (*Conn, error)

	caps   atomic.Uint64
	slots  []poolSlot
	closed atomic.Bool

	rr atomic.Uint64 // spread-pick cursor

	// Window budgets: the in-flight pipeline depth is a property of the
	// pool, not of one connection — depth×size tokens each for writes
	// and reads, so a size-1 pool budgets exactly what one connection
	// used to, and a wider pool scales the budget with its paths.
	wtok, rtok chan struct{}

	inflight atomic.Int64 // acquired window tokens (both kinds)
}

// NewPool builds a pool of size connections to addr with a per-conn
// pipeline depth of depth (the write and read window budgets are each
// depth×size). Slot 0 is dialed immediately — a pool to an unreachable
// server fails here, like a single dial used to — and the remaining
// slots dial on first use.
func NewPool(addr string, size, depth int, dial func(addr string) (*Conn, error)) (*Pool, error) {
	if size < 1 {
		size = 1
	}
	if depth < 1 {
		depth = 1
	}
	p := &Pool{
		addr:  addr,
		size:  size,
		dial:  dial,
		slots: make([]poolSlot, size),
		wtok:  make(chan struct{}, size*depth),
		rtok:  make(chan struct{}, size*depth),
	}
	if _, err := p.ensureSlot(0); err != nil {
		return nil, err
	}
	registerPool(p)
	return p, nil
}

// Addr returns the server address the pool connects to.
func (p *Pool) Addr() string { return p.addr }

// Size returns the pool's configured width.
func (p *Pool) Size() int { return p.size }

// Caps returns the pool-level capability word — the bits any response
// on any slot has stamped.
func (p *Pool) Caps() uint64 { return p.caps.Load() }

var errPoolClosed = fmt.Errorf("transport: pool closed")

// ensureSlot returns slot i's live connection, dialing it on first use.
// A slot in cooldown (recent failed dial, or a connection that died)
// fails fast so the caller can fall back to a healthy slot.
func (p *Pool) ensureSlot(i int) (*MuxConn, error) {
	s := &p.slots[i]
	if mc := s.mc.Load(); mc != nil && !mc.Dead() {
		return mc, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.closed.Load() {
		return nil, errPoolClosed
	}
	if mc := s.mc.Load(); mc != nil {
		if !mc.Dead() {
			return mc, nil
		}
		// The connection died under us: evict it and cool the slot down
		// so one flapping path cannot trigger a dial storm.
		mc.Close()
		s.mc.Store(nil)
		s.badUntil.Store(time.Now().Add(SlotCooldown).UnixNano())
	}
	if time.Now().UnixNano() < s.badUntil.Load() {
		return nil, fmt.Errorf("transport: pool slot %d of %s cooling down", i, p.addr)
	}
	poolDialing.Add(1)
	conn, err := p.dial(p.addr)
	poolDialing.Add(-1)
	if err != nil {
		s.badUntil.Store(time.Now().Add(SlotCooldown).UnixNano())
		return nil, err
	}
	mc := newMuxConn(conn, &p.caps)
	if p.closed.Load() {
		// Close ran while we dialed; registering now would leak the
		// socket past teardown.
		mc.Close()
		return nil, errPoolClosed
	}
	s.mc.Store(mc)
	return mc, nil
}

// SlotFor is the stripe-affinity pick: key maps deterministically to a
// slot, so the same (path, stripe) always rides the same connection and
// per-stripe append order is preserved end to end. When the affinity
// slot is unhealthy the pick degrades to the nearest healthy slot —
// order degrades to the server's reorder buffer rather than the whole
// write failing — and only when no slot can be had does the pool report
// the last error for the owner to fail the server over.
func (p *Pool) SlotFor(key uint64) (*MuxConn, error) {
	i := int(key % uint64(p.size))
	countPick(i)
	mc, err := p.ensureSlot(i)
	if err == nil {
		return mc, nil
	}
	return p.fallback(i, err)
}

// PickSpread rotates over every slot, dialing lazily — the read path's
// pick, spreading idempotent chunk RPCs across all connections.
func (p *Pool) PickSpread() (*MuxConn, error) {
	i := int(p.rr.Add(1) % uint64(p.size))
	countPick(i)
	mc, err := p.ensureSlot(i)
	if err == nil {
		return mc, nil
	}
	return p.fallback(i, err)
}

// Pick rotates over the already-open connections only — the control
// path's pick, which must never stall a stat behind a lazy dial. With
// nothing open yet it dials slot 0 (the primed slot, so this only
// happens after a death).
func (p *Pool) Pick() (*MuxConn, error) {
	n := int(p.rr.Add(1))
	for k := 0; k < p.size; k++ {
		i := (n + k) % p.size
		if mc := p.slots[i].mc.Load(); mc != nil && !mc.Dead() {
			countPick(i)
			return mc, nil
		}
	}
	countPick(0)
	return p.ensureSlot(0)
}

// fallback scans for any healthy slot after pick i failed, preferring
// already-open connections, then undialed slots.
func (p *Pool) fallback(i int, lastErr error) (*MuxConn, error) {
	for k := 1; k < p.size; k++ {
		j := (i + k) % p.size
		if mc := p.slots[j].mc.Load(); mc != nil && !mc.Dead() {
			return mc, nil
		}
	}
	for k := 1; k < p.size; k++ {
		j := (i + k) % p.size
		if mc, err := p.ensureSlot(j); err == nil {
			return mc, nil
		}
	}
	return nil, lastErr
}

// AcquireWrite takes one write-window token, honoring ctx. The budget
// is pool-wide: concurrent striped writes to one server share depth×size
// in-flight chunk RPCs instead of each opening its own window.
func (p *Pool) AcquireWrite(ctx context.Context) error { return p.acquire(ctx, p.wtok) }

// ReleaseWrite returns a write-window token.
func (p *Pool) ReleaseWrite() { p.release(p.wtok) }

// TryAcquireWrite takes a write-window token only if one is free — the
// non-blocking pick callers use while they still hold collectable
// in-flight responses of their own (blocking then could deadlock on a
// token the caller itself must release).
func (p *Pool) TryAcquireWrite() bool { return p.tryAcquire(p.wtok) }

// AcquireRead takes one read-window token, honoring ctx.
func (p *Pool) AcquireRead(ctx context.Context) error { return p.acquire(ctx, p.rtok) }

// TryAcquireRead takes a read-window token only if one is free.
func (p *Pool) TryAcquireRead() bool { return p.tryAcquire(p.rtok) }

// ReleaseRead returns a read-window token.
func (p *Pool) ReleaseRead() { p.release(p.rtok) }

func (p *Pool) tryAcquire(tok chan struct{}) bool {
	select {
	case tok <- struct{}{}:
		p.inflight.Add(1)
		return true
	default:
		return false
	}
}

func (p *Pool) acquire(ctx context.Context, tok chan struct{}) error {
	if ctx == nil || ctx.Done() == nil {
		tok <- struct{}{}
	} else {
		select {
		case tok <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	p.inflight.Add(1)
	return nil
}

func (p *Pool) release(tok chan struct{}) {
	p.inflight.Add(-1)
	<-tok
}

// ForEach calls f with every currently open connection (heartbeats,
// goodbyes). Lazily undialed slots are skipped.
func (p *Pool) ForEach(f func(*MuxConn)) {
	for i := range p.slots {
		if mc := p.slots[i].mc.Load(); mc != nil && !mc.Dead() {
			f(mc)
		}
	}
}

// OpenConns reports how many connections the pool currently holds open
// — the lazy-dial observable.
func (p *Pool) OpenConns() int {
	n := 0
	for i := range p.slots {
		if mc := p.slots[i].mc.Load(); mc != nil && !mc.Dead() {
			n++
		}
	}
	return n
}

// Close tears the pool down: every open connection closes and no new
// dial will register.
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	unregisterPool(p)
	for i := range p.slots {
		s := &p.slots[i]
		s.mu.Lock()
		if mc := s.mc.Load(); mc != nil {
			mc.Close()
			s.mc.Store(nil)
		}
		s.mu.Unlock()
	}
}

// --- process-wide pool accounting (themis_transport_pool_*) -----------

// poolPickSlots bounds the picks-by-slot vector; wider pools fold their
// tail into the last bucket.
const poolPickSlots = 16

var (
	poolDialing atomic.Int64
	poolPicks   [poolPickSlots]atomic.Int64

	poolRegMu sync.Mutex
	poolReg   = map[*Pool]struct{}{}
)

func countPick(slot int) {
	if slot >= poolPickSlots {
		slot = poolPickSlots - 1
	}
	poolPicks[slot].Add(1)
}

func registerPool(p *Pool) {
	poolRegMu.Lock()
	poolReg[p] = struct{}{}
	poolRegMu.Unlock()
}

func unregisterPool(p *Pool) {
	poolRegMu.Lock()
	delete(poolReg, p)
	poolRegMu.Unlock()
}

// ConnPoolStats reports the process-wide pool state: connections open
// across every live pool, dials in progress, and slots sitting in
// cooldown. Computed at scrape time — the request path pays nothing.
func ConnPoolStats() (open, dialing, cooldown int64) {
	now := time.Now().UnixNano()
	poolRegMu.Lock()
	defer poolRegMu.Unlock()
	for p := range poolReg {
		for i := range p.slots {
			if mc := p.slots[i].mc.Load(); mc != nil && !mc.Dead() {
				open++
			} else if p.slots[i].badUntil.Load() > now {
				cooldown++
			}
		}
	}
	return open, dialing + poolDialing.Load(), cooldown
}

// PoolPicks emits the process-wide pick count per slot index (slot
// poolPickSlots-1 aggregates everything at or past it).
func PoolPicks(emit func(slot int, picks int64)) {
	for i := range poolPicks {
		if n := poolPicks[i].Load(); n > 0 {
			emit(i, n)
		}
	}
}

// PoolsSnapshot emits one row per live pool: its server address, open
// connection count and in-flight window tokens — the per-server
// in-flight gauge.
func PoolsSnapshot(emit func(addr string, open, inflight int64)) {
	poolRegMu.Lock()
	pools := make([]*Pool, 0, len(poolReg))
	for p := range poolReg {
		pools = append(pools, p)
	}
	poolRegMu.Unlock()
	for _, p := range pools {
		emit(p.addr, int64(p.OpenConns()), p.inflight.Load())
	}
}
