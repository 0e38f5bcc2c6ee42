// Package fsys implements ThemisIO's user-space file system (§4.3): a
// byte-addressable store where "both directories and files are stored as
// files, and files and metadata are spread across ThemisIO servers using
// a consistent hash function". Each server holds a Shard (namespace
// entries it owns plus extent-indexed data); a Router stripes paths and
// data across shards.
//
// Concurrency follows the paper: concurrent reads need no locking;
// concurrent writes to non-conflicting byte ranges proceed without
// limitation; metadata updates are serialized per shard.
package fsys

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"themisio/internal/chash"
	"themisio/internal/storage"
)

// Errors mirror the POSIX conditions the intercepted functions surface.
var (
	ErrNotExist  = errors.New("fsys: no such file or directory")
	ErrExist     = errors.New("fsys: file exists")
	ErrIsDir     = errors.New("fsys: is a directory")
	ErrNotDir    = errors.New("fsys: not a directory")
	ErrNotEmpty  = errors.New("fsys: directory not empty")
	ErrBadOffset = errors.New("fsys: negative offset")
	// ErrStaleLayout reports an operation against a layout this shard no
	// longer serves: the entry was migrated away (rebalancing moved its
	// stripe to another server), is write-frozen mid-migration, or its
	// layout generation no longer matches the caller's cached one. The
	// condition is routing staleness, not data loss — the caller re-stats
	// the path to learn the current layout and retries.
	ErrStaleLayout = errors.New("fsys: stale file layout (migrated)")
	// ErrTornAppend reports a positional append that partially overlaps
	// the landed stripe: its offset is inside the local size but its end
	// extends past it. A whole-chunk duplicate (a retransmit of bytes
	// that already landed) is tolerated as success; a partial overlap
	// means chunk boundaries drifted between attempts, and accepting it
	// would double-write the overlapped range.
	ErrTornAppend = errors.New("fsys: positional append partially overlaps landed data")
	// ErrParkedFull reports a positional append parked-bytes budget
	// overflow: too many out-of-order chunks are waiting for a missing
	// predecessor. The pipelined client's in-flight window keeps real
	// traffic far under the bound, so hitting it means frames were lost
	// or a peer is misbehaving; the write fails and the client repairs.
	ErrParkedFull = errors.New("fsys: positional append reorder buffer full")
)

// FileInfo is the stat result.
type FileInfo struct {
	Path  string
	Size  int64
	IsDir bool
	// Stripes is the number of shards the file's data spans; StripeUnit
	// is the bytes per stripe chunk. Both are laid down at creation so
	// any client can discover a file's layout from a stat.
	Stripes    int
	StripeUnit int64
	// StripeSet is the ordered server set holding the stripes, fixed at
	// creation; readers follow it instead of re-deriving placement from
	// a ring that may have changed since.
	StripeSet []string
	// LayoutGen is the layout generation: 1 at creation, bumped every
	// time rebalancing rewrites the recorded layout. Clients cache it
	// per handle and echo it on reads and writes, so a server can tell
	// a request computed against a superseded layout from a current one.
	LayoutGen uint64
}

// node is one namespace entry on a shard.
type node struct {
	isDir    bool
	children map[string]bool // directories: child names
	index    *storage.Index  // files: local extent index
	stripes  int
	unit     int64
	set      []string
	// gen is the entry's creation generation (unique per shard
	// lifetime): stage-out work harvested from one incarnation of a
	// path must never land against a later one (unlink + recreate).
	gen uint64
	// layoutGen is the recorded layout's generation (see
	// FileInfo.LayoutGen); sealed write-freezes the local stripe while
	// a migration copies it (reads still serve, writes get
	// ErrStaleLayout so no acknowledged byte can miss the cutover copy).
	// sealedAt records when the seal was placed, so the zombie sweep
	// can tell a live migration's seal from one whose coordinator died
	// between cutover and drop delivery.
	layoutGen uint64
	sealed    bool
	sealedAt  time.Time
	// dirty tracks byte ranges written since the last stage-out (files);
	// metaDirty marks an entry whose existence or child set is not yet
	// staged (set at creation — so empty files reach the backing store
	// — and on directory child changes). Both feed the drain engine
	// (see stageout.go).
	dirty     *storage.RangeSet
	metaDirty bool
	// appendMu serializes every append (positional or plain) to this
	// entry. Plain appends used to ride on the store's allocator mutex
	// alone, but the positional path's park/drain step must be atomic
	// with the landing append: a plain (repair) append interleaving a
	// drain could land between a chunk and its parked successor and
	// shear the stripe. Acquired under the shard read-lock; reads stay
	// lock-free against appends as before.
	appendMu sync.Mutex
	// parked holds out-of-order positional-append chunks keyed by their
	// target offset, waiting for the gap before them to land (copies —
	// the transport frame backing the request is released when its
	// response is sent). parkedBytes bounds the buffer (maxParkedBytes);
	// parkedAt is when the oldest current resident arrived, for the
	// zombie sweep. Guarded by appendMu.
	parked      map[int64][]byte
	parkedBytes int64
	parkedAt    time.Time
}

// Shard is the per-server piece of the file system: the namespace
// entries whose paths hash to this server, plus local extents of striped
// files.
type Shard struct {
	name  string
	store *storage.Store

	mu    sync.RWMutex
	nodes map[string]*node
	// genCtr issues node creation generations (see node.gen).
	genCtr uint64
	// tombstones records entries removed since the last TakeTombstones —
	// the drain engine propagates them as backing-store deletes of this
	// server's own staged objects.
	tombstones []Tombstone
	// moved marks paths whose local stripe rebalancing migrated away
	// (value: when): operations from clients still holding the old
	// layout answer ErrStaleLayout (re-stat and retry) instead of
	// ErrNotExist (which would read as an unlink). Cleared when the
	// path is created or restored here again, and swept after a
	// retention far exceeding every client retry window, so the map
	// cannot grow with lifetime migration count.
	moved map[string]time.Time
	// pending holds migration install buffers not yet committed (see
	// migrate.go).
	pending map[string]*pendingInstall
}

// NewShard returns a shard named name with a device of the given
// capacity. The root directory exists on every shard (path lookups for
// "/" must succeed wherever they land).
func NewShard(name string, capacity int64) *Shard {
	s := &Shard{
		name:    name,
		store:   storage.NewStore(capacity),
		nodes:   map[string]*node{},
		moved:   map[string]time.Time{},
		pending: map[string]*pendingInstall{},
	}
	s.nodes["/"] = &node{isDir: true, children: map[string]bool{}}
	return s
}

// Name returns the shard's server name.
func (s *Shard) Name() string { return s.name }

// Used returns allocated device bytes.
func (s *Shard) Used() int64 { return s.store.Used() }

// clean canonicalizes a path.
func clean(p string) string {
	p = path.Clean("/" + strings.TrimSpace(p))
	return p
}

// CreateEntry records a namespace entry (file or directory) on this
// shard. The router calls this on the owner shard of the path, and
// separately updates the parent directory ("directory and file creation
// updates the content of the parent directory", §4.3).
func (s *Shard) CreateEntry(p string, dir bool, stripes int, unit int64, set []string) error {
	p = clean(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.nodes[p]; ok {
		return ErrExist
	}
	s.genCtr++
	delete(s.moved, p) // a fresh incarnation supersedes any moved marker
	n := &node{isDir: dir, stripes: stripes, unit: unit, set: set, gen: s.genCtr, metaDirty: true}
	if dir {
		n.children = map[string]bool{}
	} else {
		n.layoutGen = 1
		n.index = storage.NewIndex()
		n.dirty = storage.NewRangeSet()
	}
	s.nodes[p] = n
	return nil
}

// AddChild records a child name in a directory owned by this shard.
func (s *Shard) AddChild(dir, child string) error {
	dir = clean(dir)
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.nodes[dir]
	if !ok {
		return ErrNotExist
	}
	if !d.isDir {
		return ErrNotDir
	}
	d.children[child] = true
	d.metaDirty = true
	return nil
}

// RemoveChild removes a child name from a directory owned by this shard.
func (s *Shard) RemoveChild(dir, child string) error {
	dir = clean(dir)
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.nodes[dir]
	if !ok {
		return ErrNotExist
	}
	delete(d.children, child)
	d.metaDirty = true
	return nil
}

// RemoveEntry deletes a namespace entry. Directories must be empty.
func (s *Shard) RemoveEntry(p string) error {
	p = clean(p)
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[p]
	if !ok {
		return ErrNotExist
	}
	if n.isDir && len(n.children) > 0 {
		return ErrNotEmpty
	}
	if n.index != nil {
		for _, e := range n.index.Extents() {
			// Release never fails for extents the index allocated.
			if err := s.store.Release(e); err != nil {
				return fmt.Errorf("fsys: releasing %v: %w", e, err)
			}
		}
	}
	delete(s.nodes, p)
	s.tombstones = append(s.tombstones, Tombstone{Path: p, Stripe: s.stripeOf(n)})
	return nil
}

// Stat returns metadata for an entry owned by this shard. For files, Size
// is the size of the local stripe only; the router sums stripes.
func (s *Shard) Stat(p string) (FileInfo, error) {
	return s.StatGen(p, 0)
}

// StatGen is Stat with a layout-generation expectation checked inside
// the same critical section that reads the entry (layoutGen 0 skips
// the check): a caller comparing with a separate lookup could race a
// migration commit swapping the entry between the check and the read.
func (s *Shard) StatGen(p string, layoutGen uint64) (FileInfo, error) {
	p = clean(p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[p]
	if !ok {
		if _, mv := s.moved[p]; mv {
			return FileInfo{}, ErrStaleLayout
		}
		return FileInfo{}, ErrNotExist
	}
	if layoutGen != 0 && n.layoutGen != 0 && n.layoutGen != layoutGen {
		return FileInfo{}, ErrStaleLayout
	}
	fi := FileInfo{Path: p, IsDir: n.isDir, Stripes: n.stripes, StripeUnit: n.unit, StripeSet: n.set, LayoutGen: n.layoutGen}
	if n.index != nil {
		fi.Size = n.index.Size()
	}
	return fi, nil
}

// Readdir lists a directory owned by this shard, sorted.
func (s *Shard) Readdir(p string) ([]string, error) {
	p = clean(p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[p]
	if !ok {
		return nil, ErrNotExist
	}
	if !n.isDir {
		return nil, ErrNotDir
	}
	out := make([]string, 0, len(n.children))
	for c := range n.children {
		out = append(out, c)
	}
	sort.Strings(out)
	return out, nil
}

// Append writes data to the end of the local stripe of the file and
// returns the new local size. The shard read-lock is held for the whole
// operation: concurrent appends and reads still proceed in parallel
// (shared lock, and extent allocation serializes only on the store's
// own mutex, §4.3), but an entry replacement (recovery's RestoreFile /
// DropStale, which release the node's extents) cannot interleave and
// orphan an acknowledged write.
func (s *Shard) Append(p string, data []byte) (int64, error) {
	return s.AppendGen(p, data, 0)
}

// AppendGen is Append with a layout-generation expectation checked
// inside the same critical section that resolves the entry (layoutGen
// 0 skips the check) — a check taken under a separate lock could pass
// against the old entry and then append to the one a migration commit
// swapped in, landing an old-layout chunk the trim machinery never
// sees.
func (s *Shard) AppendGen(p string, data []byte, layoutGen uint64) (int64, error) {
	p = clean(p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[p]
	if !ok {
		if _, mv := s.moved[p]; mv {
			return 0, ErrStaleLayout
		}
		return 0, ErrNotExist
	}
	if n.isDir {
		return 0, ErrIsDir
	}
	if n.sealed {
		// Write-frozen mid-migration: refusing (instead of accepting a
		// byte the cutover copy has already passed) is what makes "no
		// acknowledged write is ever lost" hold through a rebalance.
		return 0, ErrStaleLayout
	}
	if layoutGen != 0 && n.layoutGen != 0 && n.layoutGen != layoutGen {
		return 0, ErrStaleLayout
	}
	if len(data) == 0 {
		return n.index.Size(), nil
	}
	n.appendMu.Lock()
	defer n.appendMu.Unlock()
	if err := s.appendLocked(n, data); err != nil {
		return 0, err
	}
	// A repair append can close the gap a parked positional chunk was
	// waiting on.
	if err := s.drainParked(n); err != nil {
		return 0, err
	}
	return n.index.Size(), nil
}

// maxParkedBytes bounds the per-entry positional-append reorder buffer.
// The pipelined client's in-flight window is a few MiB; anything near
// this bound is lost frames or a misbehaving peer, not normal reordering.
const maxParkedBytes = 32 << 20

// AppendAtGen is AppendGen with an explicit target offset into the local
// stripe: the server side of pipelined striped writes. A multiplexed
// connection's worker pool may execute a stripe's chunks out of order;
// the offset makes landing order-independent:
//
//   - off == local size: the chunk lands now, then any parked successors
//     whose gap it closed drain in offset order.
//   - off+len ≤ local size: a retransmit of bytes that already landed —
//     success (idempotent), nothing written.
//   - off inside the size but end past it: ErrTornAppend (chunk
//     boundaries drifted between attempts; accepting would double-write).
//   - off > local size: the chunk is parked (copied — the caller keeps
//     ownership of data) until its predecessor lands, and the call
//     SUCCEEDS immediately. The early ack is sound by induction: every
//     parked chunk either drains before its predecessor's own ack is
//     sent, or its predecessor failed — in which case the client sees
//     that failure and repairs. Parked chunks stranded by a dead client
//     are dropped by SweepParked.
//
// Returns the local size the stripe has (or will have, for a parked
// chunk) once every acked byte lands.
func (s *Shard) AppendAtGen(p string, off int64, data []byte, layoutGen uint64) (int64, error) {
	p = clean(p)
	if off < 0 {
		return 0, ErrBadOffset
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[p]
	if !ok {
		if _, mv := s.moved[p]; mv {
			return 0, ErrStaleLayout
		}
		return 0, ErrNotExist
	}
	if n.isDir {
		return 0, ErrIsDir
	}
	if n.sealed {
		return 0, ErrStaleLayout
	}
	if layoutGen != 0 && n.layoutGen != 0 && n.layoutGen != layoutGen {
		return 0, ErrStaleLayout
	}
	n.appendMu.Lock()
	defer n.appendMu.Unlock()
	size := n.index.Size()
	end := off + int64(len(data))
	switch {
	case len(data) == 0:
		return size, nil
	case end <= size:
		// Whole-chunk duplicate: already landed, ack again.
		return size, nil
	case off < size:
		return 0, fmt.Errorf("%w: off %d len %d local size %d", ErrTornAppend, off, len(data), size)
	case off > size:
		if n.parkedBytes+int64(len(data)) > maxParkedBytes {
			return 0, ErrParkedFull
		}
		if n.parked == nil {
			n.parked = map[int64][]byte{}
		}
		if _, dup := n.parked[off]; !dup {
			// Copy: the request frame backing data is released as soon
			// as the worker sends this (successful) response.
			cp := make([]byte, len(data))
			copy(cp, data)
			n.parked[off] = cp
			n.parkedBytes += int64(len(data))
			if len(n.parked) == 1 {
				n.parkedAt = time.Now()
			}
		}
		return end, nil
	}
	if err := s.appendLocked(n, data); err != nil {
		return 0, err
	}
	if err := s.drainParked(n); err != nil {
		return 0, err
	}
	return n.index.Size(), nil
}

// appendLocked writes data as a fresh extent at the end of n's local
// stripe. Caller holds s.mu (read) and n.appendMu.
func (s *Shard) appendLocked(n *node, data []byte) error {
	ext, err := s.store.Alloc(int64(len(data)))
	if err != nil {
		return err
	}
	if _, err := s.store.WriteAt(ext, 0, data); err != nil {
		return err
	}
	off := n.index.Append(ext)
	if n.dirty != nil {
		n.dirty.Mark(off, ext.Len)
	}
	return nil
}

// drainParked lands every parked chunk whose offset has become the
// local size, in offset order. Caller holds s.mu (read) and n.appendMu.
func (s *Shard) drainParked(n *node) error {
	for len(n.parked) > 0 {
		size := n.index.Size()
		d, ok := n.parked[size]
		if !ok {
			return nil
		}
		delete(n.parked, size)
		n.parkedBytes -= int64(len(d))
		if err := s.appendLocked(n, d); err != nil {
			return err
		}
	}
	return nil
}

// SweepParked drops parked positional-append chunks older than maxAge —
// residue of a client that died mid-pipeline (its predecessor chunk
// never arrived, so the gap never closes). Dropping is safe: the bytes
// were acked, but the ack chain is broken at the missing predecessor,
// so the client (or its successor re-running the job) observed a failed
// write and repairs from the landed size. Returns chunks dropped.
func (s *Shard) SweepParked(maxAge time.Duration) int {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for _, n := range s.nodes {
		if len(n.parked) == 0 || now.Sub(n.parkedAt) < maxAge {
			continue
		}
		dropped += len(n.parked)
		n.parked = nil
		n.parkedBytes = 0
	}
	return dropped
}

// ReadAt reads up to len(buf) bytes of the local stripe at offset off;
// short reads at EOF return the available prefix. Like Append, the
// shard read-lock is held across the copy so the extents cannot be
// released by a concurrent entry replacement mid-read.
func (s *Shard) ReadAt(p string, off int64, buf []byte) (int, error) {
	return s.ReadAtGen(p, off, buf, 0)
}

// ReadAtGen is ReadAt with a layout-generation expectation checked
// inside the read's critical section (layoutGen 0 skips the check), so
// a reader holding a superseded layout can never be served re-striped
// bytes by an entry swapped in mid-request.
func (s *Shard) ReadAtGen(p string, off int64, buf []byte, layoutGen uint64) (int, error) {
	p = clean(p)
	if off < 0 {
		return 0, ErrBadOffset
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[p]
	if !ok {
		if _, mv := s.moved[p]; mv {
			return 0, ErrStaleLayout
		}
		return 0, ErrNotExist
	}
	if n.isDir {
		return 0, ErrIsDir
	}
	if layoutGen != 0 && n.layoutGen != 0 && n.layoutGen != layoutGen {
		return 0, ErrStaleLayout
	}
	total := 0
	for _, sl := range n.index.Resolve(off, int64(len(buf))) {
		m, err := s.store.ReadAt(sl.Ext, sl.Off, buf[total:total+int(sl.Len)])
		total += m
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Exists reports whether the shard owns an entry at p.
func (s *Shard) Exists(p string) bool {
	p = clean(p)
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.nodes[p]
	return ok
}

// Router spreads a namespace across shards with consistent hashing and
// stripes file data round-robin over each file's stripe set.
type Router struct {
	ring    *chash.Ring
	shards  map[string]*Shard
	stripes int
	stripe  int64 // stripe unit in bytes
}

// DefaultStripeUnit is the stripe unit used when none is configured.
const DefaultStripeUnit = 1 << 20

// NewRouter builds a router over the given shards. stripes is the number
// of shards each file's data spans (clipped to the shard count);
// stripeUnit is the bytes written to one shard before moving to the next.
func NewRouter(shards []*Shard, stripes int, stripeUnit int64) *Router {
	if stripes <= 0 {
		stripes = 1
	}
	if stripes > len(shards) {
		stripes = len(shards)
	}
	if stripeUnit <= 0 {
		stripeUnit = DefaultStripeUnit
	}
	r := &Router{
		ring:    chash.New(0),
		shards:  map[string]*Shard{},
		stripes: stripes,
		stripe:  stripeUnit,
	}
	for _, s := range shards {
		r.ring.Add(s.Name())
		r.shards[s.Name()] = s
	}
	return r
}

// owner returns the shard owning the namespace entry for p.
func (r *Router) owner(p string) *Shard {
	name, _ := r.ring.Lookup(clean(p))
	return r.shards[name]
}

// stripeSet returns the shards holding p's data, in stripe order.
func (r *Router) stripeSet(p string) []*Shard {
	names := r.ring.LookupN(clean(p), r.stripes)
	out := make([]*Shard, len(names))
	for i, n := range names {
		out[i] = r.shards[n]
	}
	return out
}

// Mkdir creates a directory, updating the parent's content.
func (r *Router) Mkdir(p string) error {
	p = clean(p)
	if p == "/" {
		return ErrExist
	}
	parent, name := path.Split(p)
	parent = clean(parent)
	if fi, err := r.Stat(parent); err != nil || !fi.IsDir {
		if err != nil {
			return err
		}
		return ErrNotDir
	}
	if err := r.owner(p).CreateEntry(p, true, 0, 0, nil); err != nil {
		return err
	}
	return r.owner(parent).AddChild(parent, name)
}

// Create creates an empty file with the router's stripe count; the
// namespace entry lands on the owner shard and a stripe entry on each
// shard in the stripe set.
func (r *Router) Create(p string) error {
	return r.create(p, 0, 0, nil)
}

// CreateStriped creates an empty file recording an explicit stripe
// layout (width and unit) in its metadata. The live server uses this
// for client-driven striping: each server holds one local stripe, but
// the recorded layout lets any later client discover it from a stat.
func (r *Router) CreateStriped(p string, stripes int, unit int64, set []string) error {
	return r.create(p, stripes, unit, set)
}

func (r *Router) create(p string, stripes int, unit int64, set []string) error {
	p = clean(p)
	parent, name := path.Split(p)
	parent = clean(parent)
	if fi, err := r.Stat(parent); err != nil || !fi.IsDir {
		if err != nil {
			return err
		}
		return ErrNotDir
	}
	shards := r.stripeSet(p)
	if stripes <= 0 {
		stripes = len(shards)
	}
	if unit <= 0 {
		unit = r.stripe
	}
	for _, sh := range shards {
		if err := sh.CreateEntry(p, false, stripes, unit, set); err != nil {
			return err
		}
	}
	return r.owner(parent).AddChild(parent, name)
}

// Write appends data to the file (the client library tracks offsets; the
// store is append-structured, as the paper's future-work section notes
// for log-structured designs). Data is striped across the stripe set in
// stripe-unit chunks.
func (r *Router) Write(p string, data []byte) (int, error) {
	set := r.stripeSet(p)
	if len(set) == 0 {
		return 0, ErrNotExist
	}
	written := 0
	// Determine the next stripe from the current total size.
	total := int64(0)
	for _, sh := range set {
		fi, err := sh.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size
	}
	for written < len(data) {
		idx := int(total/r.stripe) % len(set)
		chunk := int(r.stripe - total%r.stripe)
		if chunk > len(data)-written {
			chunk = len(data) - written
		}
		if _, err := set[idx].Append(p, data[written:written+chunk]); err != nil {
			return written, err
		}
		written += chunk
		total += int64(chunk)
	}
	return written, nil
}

// ReadAt reads from the striped file at a global offset.
func (r *Router) ReadAt(p string, off int64, buf []byte) (int, error) {
	if off < 0 {
		return 0, ErrBadOffset
	}
	set := r.stripeSet(p)
	if len(set) == 0 {
		return 0, ErrNotExist
	}
	total := 0
	for total < len(buf) {
		idx := int(off/r.stripe) % len(set)
		localOff := off/r.stripe/int64(len(set))*r.stripe + off%r.stripe
		chunk := int(r.stripe - off%r.stripe)
		if chunk > len(buf)-total {
			chunk = len(buf) - total
		}
		n, err := set[idx].ReadAt(p, localOff, buf[total:total+chunk])
		total += n
		if err != nil {
			return total, err
		}
		if n < chunk {
			break // EOF on this stripe
		}
		off += int64(n)
	}
	return total, nil
}

// Stat aggregates stripe sizes for files; directories stat the owner.
func (r *Router) Stat(p string) (FileInfo, error) {
	p = clean(p)
	fi, err := r.owner(p).Stat(p)
	if err != nil || fi.IsDir {
		return fi, err
	}
	total := int64(0)
	for _, sh := range r.stripeSet(p) {
		sfi, err := sh.Stat(p)
		if err != nil {
			return fi, err
		}
		total += sfi.Size
	}
	fi.Size = total
	return fi, nil
}

// Readdir lists a directory.
func (r *Router) Readdir(p string) ([]string, error) {
	return r.owner(p).Readdir(p)
}

// Rename moves a file to a new path. Data does not move: the namespace
// entries (and each stripe's extent index) are re-registered under the
// destination path on the destination's shard set. Directories cannot be
// renamed (their children reference paths on many shards); this matches
// the burst-buffer usage pattern where renames finalize checkpoints.
func (r *Router) Rename(oldPath, newPath string) error {
	oldPath, newPath = clean(oldPath), clean(newPath)
	fi, err := r.Stat(oldPath)
	if err != nil {
		return err
	}
	if fi.IsDir {
		return ErrIsDir
	}
	if r.owner(newPath).Exists(newPath) {
		return ErrExist
	}
	newParent, _ := path.Split(newPath)
	if pfi, err := r.Stat(clean(newParent)); err != nil || !pfi.IsDir {
		if err != nil {
			return err
		}
		return ErrNotDir
	}
	// Read the whole file, create the destination, copy, remove source.
	// (A production implementation would splice extent indexes; copying
	// keeps the invariant that stripe placement always follows the hash
	// of the current path, which reads depend on.)
	buf := make([]byte, fi.Size)
	if fi.Size > 0 {
		if _, err := r.ReadAt(oldPath, 0, buf); err != nil {
			return err
		}
	}
	if err := r.Create(newPath); err != nil {
		return err
	}
	if fi.Size > 0 {
		if _, err := r.Write(newPath, buf); err != nil {
			return err
		}
	}
	_, err = r.Unlink(oldPath)
	return err
}

// Unlink removes a file (all stripes) or empty directory, returning the
// removed entry's metadata (the live server echoes its layout to the
// client, which then knows where the other stripes live without a stat).
func (r *Router) Unlink(p string) (FileInfo, error) {
	p = clean(p)
	if p == "/" {
		return FileInfo{}, ErrNotEmpty
	}
	fi, err := r.Stat(p)
	if err != nil {
		return fi, err
	}
	if fi.IsDir {
		if err := r.owner(p).RemoveEntry(p); err != nil {
			return fi, err
		}
	} else {
		for _, sh := range r.stripeSet(p) {
			if err := sh.RemoveEntry(p); err != nil {
				return fi, err
			}
		}
	}
	parent, name := path.Split(p)
	return fi, r.owner(clean(parent)).RemoveChild(clean(parent), name)
}
