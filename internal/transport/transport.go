// Package transport defines the wire protocol between ThemisIO clients
// and servers, and between servers (job-table synchronization). The
// paper uses UCX over InfiniBand (§4.2); this implementation frames the
// same message semantics over any net.Conn — the scheduler arbitrates at
// the request level either way, and transport latency constants live in
// the simulator, not here.
//
// Two codecs share the stream format:
//
//   - gob (legacy): self-describing, reflective, and what every peer
//     spoke before the binary codec existed. Server↔server control
//     traffic (gossip, the legacy MsgSync all-gather) stays on gob.
//   - binary: a length-prefixed hand-rolled framing for the hot data
//     messages (read/write/response payloads) with pooled buffers —
//     near-zero steady-state allocation on the request path.
//
// Negotiation is per connection and receiver-driven: a binary sender
// prefixes its stream with a magic that can never begin a gob stream (a
// gob message cannot have length zero, so a leading 0x00 byte is
// unambiguous); every receiver peeks the first bytes and picks the
// decoder. The accept side of a connection additionally adopts the
// peer's codec for its replies, so an old gob client keeps talking to a
// new server entirely in gob.
//
// Every I/O request carries the job metadata (job id, user id, group,
// node count) that the server's policies evaluate — the paper's key
// enabler for profile-free sharing.
package transport

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"themisio/internal/jobtable"
	"themisio/internal/policy"
)

// MsgType enumerates the protocol operations, mirroring the intercepted
// POSIX functions of §4.4 plus control traffic.
type MsgType uint8

// Protocol message types.
const (
	MsgOpen MsgType = iota
	MsgCreate
	MsgRead
	MsgWrite
	MsgClose
	MsgStat
	MsgMkdir
	MsgReaddir
	MsgUnlink
	MsgHeartbeat
	MsgBye
	MsgSync // server↔server job-table all-gather (legacy static-peer mode)

	// Cluster-fabric control traffic (internal/cluster).
	MsgGossip        // push-pull λ exchange: job table + membership digest
	MsgJoin          // a starting server announces itself to a seed
	MsgLeave         // graceful departure notice
	MsgClusterStatus // operator query: membership + ring epoch
	MsgDrain         // operator request: mark the receiving server draining

	// MsgFlush forces a full stage-out: the receiving server drains
	// every dirty byte to its backing store before replying. The drain
	// traffic itself still goes through the token scheduler under the
	// stage-out job — a flush forces completeness, not priority.
	MsgFlush

	// MsgMigrate is the server↔server stripe-migration protocol of
	// join-time rebalancing. The MigrateOp field selects the sub-op
	// (seal/install/commit/abort/drop); the frames carry the rebalance
	// job identity and are scheduled through the receiving server's
	// token draw like any write, so the sharing policy arbitrates
	// migration bandwidth against foreground I/O.
	MsgMigrate

	// MsgRebalanceStatus is the operator query for a server's migration
	// progress (themisctl rebalance status).
	MsgRebalanceStatus

	// MsgPolicySet installs a new cluster-wide sharing policy on the
	// receiving member: the member validates the policy string, bumps
	// the cluster policy epoch past every version it has seen, and lets
	// the gossip rumor path carry the new version to every other
	// member. Each server's controller recompiles at its next λ — no
	// restart, no dropped request. The reply echoes the canonical
	// policy string and the new policy epoch.
	MsgPolicySet

	// MsgShareReport is the per-entity fairness query (themisctl policy
	// status): the reply carries the server's applied policy string and
	// policy epoch plus one ShareRecord per sharing entity (job, user,
	// group) with its compiled token share and its measured
	// serviced-byte share over the server's λ-windowed accounting
	// horizon.
	MsgShareReport
)

// Migration sub-ops carried in Request.MigrateOp for MsgMigrate.
const (
	// MigrateSeal write-freezes the local stripe of a file about to
	// move; reads keep working. The reply reports the frozen local size
	// (Size) and the entry's creation generation (Gen).
	MigrateSeal uint8 = iota
	// MigrateInstall appends a chunk of the file's new local stripe to
	// the receiving server's pending (not yet visible) migration buffer.
	MigrateInstall
	// MigrateCommit atomically replaces/creates the live entry from the
	// pending buffer under the new layout (Stripes/StripeUnit/StripeSet/
	// LayoutGen), marking it dirty so it restages.
	MigrateCommit
	// MigrateAbort discards the pending buffer (failed migration).
	MigrateAbort
	// MigrateDrop removes a stale local stripe after cutover,
	// generation-checked (Gen) so a concurrent unlink/recreate of the
	// path is never clobbered, and leaves a moved marker so late
	// old-layout clients get ErrStaleLayout instead of ErrNotExist.
	MigrateDrop
	// MigrateUnseal lifts a seal after an aborted migration.
	MigrateUnseal
	// MigrateUnsealTrim lifts a seal after truncating the local stripe
	// to Size bytes — the abort path when the seal phase raced a
	// striped write and left unacknowledged torn bytes beyond the
	// consistent round-robin prefix.
	MigrateUnsealTrim
)

// String names the message type.
func (m MsgType) String() string {
	names := []string{"open", "create", "read", "write", "close", "stat",
		"mkdir", "readdir", "unlink", "heartbeat", "bye", "sync",
		"gossip", "join", "leave", "cluster-status", "drain", "flush",
		"migrate", "rebalance-status", "policy-set", "share-report"}
	if int(m) < len(names) {
		return names[m]
	}
	return fmt.Sprintf("msg(%d)", uint8(m))
}

// MemberRecord is the wire form of a cluster membership rumor. The
// cluster package converts to and from its Member type; transport keeps
// only the codec so the dependency points upward (cluster → transport).
type MemberRecord struct {
	Addr        string
	State       uint8
	Incarnation uint64
}

// ShareRecord is the wire form of one sharing entity's fairness
// accounting: the token share the policy compiled for it versus the
// share of serviced bytes it actually received over the reporting
// server's λ-windowed horizon. Kind is "job", "user" or "group". The
// metrics package owns the accounting; transport keeps only the codec
// (the MemberRecord pattern).
type ShareRecord struct {
	Kind     string
	ID       string
	Compiled float64
	Measured float64
	Bytes    int64
}

// Residual is the measured-minus-compiled convergence residual; the
// fairness CI gate bounds its magnitude.
func (r ShareRecord) Residual() float64 { return r.Measured - r.Compiled }

// Request is a client→server (or server→server, for MsgSync) message.
type Request struct {
	Type MsgType
	Seq  uint64
	Job  policy.JobInfo

	Path   string
	Offset int64
	Size   int64
	Data   []byte
	// DataSegs, when non-nil, is the write payload as a scatter list
	// (Data must then be nil): the client's striped-write path hands
	// the per-server spans of the caller's buffer here and the binary
	// sender carries each segment as its own iovec — no concatenation
	// copy. The wire form is identical to Data (one contiguous payload
	// field); DataSegs never appears on the receive side. The gob
	// fallback flattens it before encoding.
	DataSegs [][]byte

	// AppendAt marks a write as offset-checked: the server appends only
	// if the local stripe length equals AppendOff, parking early
	// arrivals and discarding duplicates — what keeps pipelined chunk
	// streams in order per stripe under the server's unordered worker
	// pool. Rides the optional trailing frame group (older peers ignore
	// it); clients set it only after the peer advertised CapAppendAt.
	AppendAt  bool
	AppendOff int64

	// Stripes, StripeUnit and StripeSet are the file's stripe layout,
	// sent with MsgCreate so the servers record it in the file
	// metadata; any later client then discovers the layout from a stat
	// instead of guessing from its own configuration or deriving the
	// server set from a ring that may have drifted since creation.
	Stripes    int
	StripeUnit int64
	StripeSet  []string

	// MigrateOp selects the MsgMigrate sub-op (MigrateSeal & friends).
	MigrateOp uint8
	// Gen is the expected creation generation for generation-checked
	// migration ops (MigrateDrop): a concurrent unlink/recreate bumps
	// the entry's generation and the stale op becomes a no-op.
	Gen uint64
	// LayoutGen is, on MsgRead/MsgWrite, the client's cached layout
	// generation of the file (zero = unchecked, the legacy behaviour):
	// a server whose entry has a different layout generation answers
	// ErrStaleLayout so the client re-stats instead of silently reading
	// or writing re-striped bytes. On MigrateCommit it is the new
	// layout generation being installed.
	LayoutGen uint64

	// Table carries job status entries for MsgSync and MsgGossip.
	Table []jobtable.Entry

	// From is the sender's advertised address for cluster control
	// messages (the accepted socket's remote port is ephemeral, so the
	// listen address must ride in the frame).
	From string
	// Members carries the membership digest for MsgGossip/MsgJoin/
	// MsgLeave.
	Members []MemberRecord

	// PolicyStr and PolicyEpoch carry the cluster-wide policy version:
	// the policy string to install on MsgPolicySet, and the sender's
	// current policy rumor on MsgGossip/MsgJoin (epoch 0 means no live
	// set has ever happened and is never merged).
	PolicyStr   string
	PolicyEpoch uint64

	// ShareTopN and ShareKind page a MsgShareReport server-side: the
	// ledger returns only the top N entities by |residual| of the given
	// kind ("job", "user", "group"; "" or "all" keeps every kind). Zero
	// values mean the full report — the legacy behaviour, and what an
	// older client's frame decodes to. Rides the optional trailing
	// frame group (older servers ignore it and answer unfiltered).
	ShareTopN int
	ShareKind string

	// frame is the leased receive buffer a binary-decoded request's
	// Data aliases; Release returns it to the payload pool.
	frame []byte
}

// payloadLen is the request's wire payload length: Data, or the scatter
// list's total when DataSegs is set.
func (r *Request) payloadLen() int {
	if r.DataSegs == nil {
		return len(r.Data)
	}
	return iovLen(r.DataSegs)
}

// Release returns the leased frame buffer this request's Data aliases
// to the payload pool (no-op for gob-decoded or locally built
// requests). After Release neither r.Data nor any alias of it may be
// used; Data is nilled so a stale use fails loudly. Releasing is
// optional — an unreleased frame is garbage-collected — but the hot
// paths (server workers, the client's response consumers) release so
// steady-state traffic recycles instead of allocating.
func (r *Request) Release() {
	if r.frame != nil {
		b := r.frame
		r.frame = nil
		r.Data = nil
		Release(b)
	}
}

// Response answers a Request, matched by Seq.
type Response struct {
	Seq  uint64
	Err  string
	N    int64
	Data []byte

	// Stat results.
	Size       int64
	IsDir      bool
	Names      []string
	Stripes    int
	StripeUnit int64
	StripeSet  []string
	// LayoutGen is the entry's layout generation (stat replies; clients
	// cache it and echo it on reads and writes). Gen is the entry's
	// creation generation (MigrateSeal replies; the coordinator uses it
	// for generation-checked cutover).
	LayoutGen uint64
	Gen       uint64

	// Pull half of a gossip exchange (MsgGossip/MsgJoin replies), and
	// the MsgClusterStatus answer.
	Table   []jobtable.Entry
	Members []MemberRecord
	Epoch   uint64

	// PolicyStr and PolicyEpoch carry the policy version: the pull half
	// of a gossip exchange, the new version on a MsgPolicySet reply,
	// and the *applied* version on a MsgShareReport reply (the epoch
	// the server's scheduler last recompiled under — what "every member
	// reports the new policy epoch" means during a hot-swap).
	PolicyStr   string
	PolicyEpoch uint64
	// Shares is the per-entity fairness report (MsgShareReport).
	Shares []ShareRecord

	// Caps advertises the responder's protocol capabilities (CapAppendAt
	// and friends). Carried as the optional trailing frame word — older
	// peers neither send nor parse it, so a zero Caps from the wire
	// means "legacy peer" and gates every newer protocol feature off.
	Caps uint64

	// frame is the leased buffer this response's Data aliases: the
	// receive frame (binary decode), or the server read path's reply
	// payload (AttachLease). Release returns it.
	frame []byte
}

// Capability bits for Response.Caps.
const (
	// CapAppendAt: the server honors Request.AppendAt offset-checked
	// ordered appends, which is what licenses a client to pipeline
	// striped write chunks without a round trip between them.
	CapAppendAt uint64 = 1 << 0
)

// Release returns the leased buffer this response's Data aliases to the
// payload pool (no-op for gob-decoded responses). Same contract as
// Request.Release.
func (r *Response) Release() {
	if r.frame != nil {
		b := r.frame
		r.frame = nil
		r.Data = nil
		Release(b)
	}
}

// AttachLease hands the response ownership of a leased buffer that its
// Data aliases — the server read path leases its reply payload and the
// worker releases it after the reply is on the wire.
func (r *Response) AttachLease(b []byte) { r.frame = b }

// Error materializes the response error, nil if none.
func (r *Response) Error() error {
	if r.Err == "" {
		return nil
	}
	return fmt.Errorf("%s", r.Err)
}

// ErrStaleLayout is the wire form of the layout-changed condition: the
// addressed server no longer holds (or no longer holds under the
// client's cached layout) the file's data, because join-time
// rebalancing moved or re-striped it. Clients that see it re-stat the
// path to learn the new layout and retry; it is a routing condition,
// not a data error. The string is the protocol contract — both codecs
// carry errors as strings, so the prefix is what survives the wire.
const ErrStaleLayout = "stale-layout: file layout changed, re-stat"

// IsStaleLayout reports whether err is the wire-carried stale-layout
// condition. Matched anywhere in the message, not just as a prefix:
// intermediate layers (the client's write-repair path, for one) wrap
// the server string with context, and a wrapped stale answer must stay
// recognizably retryable.
func IsStaleLayout(err error) bool {
	return err != nil && strings.Contains(err.Error(), "stale-layout:")
}

// IsNotExist reports whether err carries the server's missing-entry
// condition (fsys.ErrNotExist's message; both codecs carry errors as
// strings). The one place the prose is matched — callers deciding
// merge-tolerance or mid-cutover retries must not each hard-code the
// wording.
func IsNotExist(err error) bool {
	return err != nil && strings.Contains(err.Error(), "no such file or directory")
}

// binMagic announces the binary codec at the start of a stream. The
// leading 0x00 can never begin a gob stream (gob frames open with a
// non-zero uvarint byte count), which is what makes receiver-side
// detection unambiguous.
var binMagic = [4]byte{0x00, 'T', 'B', '1'}

// Conn is a framed message stream with serialized writes. Each direction
// is independently either gob- or binary-coded; see the package comment
// for the negotiation rules.
type Conn struct {
	raw net.Conn
	// w is where encoded frames go: raw, or the counting wrapper when
	// the connection carries Stats.
	w  io.Writer
	br *bufio.Reader

	// Accounting state (nil/zero without Stats — see NewConnStats).
	// cr/lastRecvPos are owned by the reader goroutine; cw is guarded
	// by wmu like all send state.
	stats       *Stats
	cr          *countReader
	cw          *countWriter
	lastRecvPos int64

	// Send state, guarded by wmu. sendBin may additionally be flipped by
	// the receive path (codec adoption) before the first reply is sent;
	// the request whose arrival triggered the flip happens-before its
	// reply, so the update is ordered for every sender.
	wmu       sync.Mutex
	enc       *gob.Encoder
	sendBin   bool
	adopt     bool
	magicSent bool
	// iov is the reusable iovec scratch of the vectored send path.
	iov net.Buffers

	// Receive state, owned by the single reader goroutine.
	dec      *gob.Decoder
	recvBin  bool
	detected bool
}

// NewConn wraps a net.Conn in legacy mode: sends are gob, receives
// auto-detect the peer's codec, and — this being the accept side — the
// send direction adopts the detected codec for replies.
func NewConn(raw net.Conn) *Conn {
	return &Conn{raw: raw, w: raw, br: bufio.NewReader(raw), adopt: true}
}

// NewBinaryConn wraps a net.Conn in binary mode (the dial side of a data
// connection): sends are length-prefixed binary opened with the codec
// magic; receives still auto-detect, so a reply stream from either kind
// of peer is understood.
func NewBinaryConn(raw net.Conn) *Conn {
	return &Conn{raw: raw, w: raw, br: bufio.NewReader(raw), sendBin: true}
}

// detect inspects the first bytes of the receive stream and locks in the
// decoder. Called from the receive path only (one reader per conn).
func (c *Conn) detect() error {
	if c.detected {
		return nil
	}
	b, err := c.br.Peek(len(binMagic))
	if err != nil {
		return err
	}
	if bytes.Equal(b, binMagic[:]) {
		if _, err := c.br.Discard(len(binMagic)); err != nil {
			return err
		}
		c.recvBin = true
		if c.adopt {
			c.wmu.Lock()
			c.sendBin = true
			c.wmu.Unlock()
		}
	}
	c.detected = true
	return nil
}

// SendRequest writes a request frame.
func (c *Conn) SendRequest(r *Request) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var before int64
	if c.stats != nil {
		before = c.cw.n
	}
	var err error
	if c.sendBin {
		err = c.writeBinFrame(r.Data, r.DataSegs,
			func(b []byte, n int) []byte { return appendRequestHead(b, r, n) },
			func(b []byte) []byte { return appendRequestTail(b, r) })
	} else {
		if c.enc == nil {
			c.enc = gob.NewEncoder(c.w)
		}
		if r.DataSegs != nil {
			// gob has no scatter path: flatten into a shallow copy so the
			// caller's request (and its segment list) stays untouched.
			rr := *r
			rr.Data = make([]byte, 0, rr.payloadLen())
			for _, s := range r.DataSegs {
				rr.Data = append(rr.Data, s...)
			}
			rr.DataSegs = nil
			r = &rr
		}
		err = c.enc.Encode(r)
	}
	if err == nil && c.stats != nil {
		c.stats.count(DirOut, int(r.Type), c.cw.n-before)
	}
	return err
}

// SendResponse writes a response frame.
func (c *Conn) SendResponse(r *Response) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	var before int64
	if c.stats != nil {
		before = c.cw.n
	}
	var err error
	if c.sendBin {
		err = c.writeBinFrame(r.Data, nil,
			func(b []byte, n int) []byte { return appendResponseHead(b, r, n) },
			func(b []byte) []byte { return appendResponseTail(b, r) })
	} else {
		if c.enc == nil {
			c.enc = gob.NewEncoder(c.w)
		}
		err = c.enc.Encode(r)
	}
	if err == nil && c.stats != nil {
		c.stats.count(DirOut, respSlot, c.cw.n-before)
	}
	return err
}

// RecvRequest reads a request frame (server side).
func (c *Conn) RecvRequest() (*Request, error) {
	if err := c.detect(); err != nil {
		return nil, err
	}
	if c.recvBin {
		b, err := c.readFrameLeased()
		if err != nil {
			return nil, err
		}
		r := new(Request)
		if err := decodeRequest(b, r); err != nil {
			Release(b)
			return nil, err
		}
		// The decoded Data aliases the leased frame; ownership rides
		// with the request until its Release.
		r.frame = b
		if c.stats != nil {
			c.noteRecv(int(r.Type))
		}
		return r, nil
	}
	if c.dec == nil {
		c.dec = gob.NewDecoder(c.br)
	}
	var r Request
	if err := c.dec.Decode(&r); err != nil {
		return nil, err
	}
	if c.stats != nil {
		c.noteRecv(int(r.Type))
	}
	return &r, nil
}

// RecvResponse reads a response frame (client side).
func (c *Conn) RecvResponse() (*Response, error) { return c.recvResponseInto(nil) }

// recvResponseInto reads one response frame. claim (nil: no claims) is
// called exactly once per frame with the response's Seq, before any of
// its payload is consumed. A non-nil destination it returns receives
// the payload: on the binary codec the bytes are read from the socket
// straight into those iovecs, and the returned Response carries no
// Data and no lease. Frames whose head does not fit the read buffer,
// and gob-coded streams, decode whole and land with one copy. A
// payload larger than the destination fails the frame before a byte
// of it is written. Reader goroutine only.
func (c *Conn) recvResponseInto(claim func(seq uint64) [][]byte) (*Response, error) {
	if err := c.detect(); err != nil {
		return nil, err
	}
	r := new(Response)
	if !c.recvBin {
		if c.dec == nil {
			c.dec = gob.NewDecoder(c.br)
		}
		if err := c.dec.Decode(r); err != nil {
			return nil, err
		}
		return r, c.landDecoded(r, claim)
	}
	n, err := c.readFrameLen()
	if err != nil {
		return nil, err
	}
	// Peek the head: at most the frame, at most the read buffer, so it
	// never parses bytes of the next frame.
	head, err := c.br.Peek(min(n, c.br.Size()))
	if err != nil {
		return nil, err
	}
	d := reader{b: head}
	plen := decodeResponseHead(&d, r)
	hl := len(head) - len(d.b)
	var dst [][]byte
	switch {
	case d.err != nil && len(head) == n:
		return nil, d.err
	case d.err != nil:
		// A head longer than the read buffer (a long error string):
		// the whole-frame decode below claims the waiter.
	case plen > uint64(n-hl):
		return nil, fmt.Errorf("transport: payload of %d bytes overruns a %d-byte frame", plen, n)
	case claim != nil:
		dst = claim(r.Seq)
		if dst == nil {
			claim = nil // claimed; landDecoded must not claim again
		}
	}
	if dst == nil {
		// No destination: decode the whole frame into a lease, which
		// the decoded Data aliases until the response's Release.
		b := Lease(n)
		if _, err := io.ReadFull(c.br, b); err != nil {
			Release(b)
			return nil, err
		}
		if err := decodeResponse(b, r); err != nil {
			Release(b)
			return nil, err
		}
		r.frame = b
		return r, c.landDecoded(r, claim)
	}
	if plen > uint64(iovLen(dst)) {
		return nil, fmt.Errorf("transport: payload of %d bytes overruns a %d-byte destination", plen, iovLen(dst))
	}
	if _, err := c.br.Discard(hl); err != nil {
		return nil, err
	}
	for left := int(plen); left > 0; dst = dst[1:] {
		seg := dst[0][:min(left, len(dst[0]))]
		if _, err := io.ReadFull(c.br, seg); err != nil {
			return nil, err
		}
		left -= len(seg)
	}
	// The tail is a few bytes on a data reply; a long one (a hostile or
	// control-plane frame) is read whole, decoded and dropped.
	tl := n - hl - int(plen)
	var tail []byte
	if tl <= c.br.Size() {
		if tail, err = c.br.Peek(tl); err == nil {
			_, err = c.br.Discard(tl)
		}
	} else {
		tail = make([]byte, tl)
		_, err = io.ReadFull(c.br, tail)
	}
	if err != nil {
		return nil, err
	}
	d = reader{b: tail}
	decodeResponseTail(&d, r)
	if d.err != nil {
		return nil, d.err
	}
	c.noteResp()
	return r, nil
}

// landDecoded finishes a fully decoded response: it claims the waiter
// (a nil claim: already claimed, or none to make) and, when the waiter
// registered a destination, copies the payload there and drops the
// frame — the one-copy fallback of recvResponseInto.
func (c *Conn) landDecoded(r *Response, claim func(seq uint64) [][]byte) error {
	if claim != nil {
		if dst := claim(r.Seq); dst != nil {
			if len(r.Data) > iovLen(dst) {
				r.Release()
				return fmt.Errorf("transport: payload of %d bytes overruns a %d-byte destination", len(r.Data), iovLen(dst))
			}
			for src := r.Data; len(src) > 0; dst = dst[1:] {
				src = src[copy(dst[0], src):]
			}
			r.Release()
			r.Data = nil
		}
	}
	c.noteResp()
	return nil
}

// noteResp attributes a received response to the stats, if any.
func (c *Conn) noteResp() {
	if c.stats != nil {
		c.noteRecv(respSlot)
	}
}

// iovLen is the total length of an iovec list.
func iovLen(iov [][]byte) int {
	n := 0
	for _, s := range iov {
		n += len(s)
	}
	return n
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.raw.Close() }

// SetDeadline bounds both reads and writes on the underlying
// connection; the zero time clears it. Control-plane exchanges use
// this so one wedged peer cannot stall a server's λ loop forever.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// RemoteAddr exposes the peer address for logging.
func (c *Conn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }
