package fsys

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func newRouter(nShards, stripes int) *Router {
	var shards []*Shard
	for i := 0; i < nShards; i++ {
		shards = append(shards, NewShard(fmt.Sprintf("bb%d", i), 64<<20))
	}
	return NewRouter(shards, stripes, 1<<16)
}

func TestMkdirCreateStatReaddir(t *testing.T) {
	r := newRouter(4, 2)
	if err := r.Mkdir("/data"); err != nil {
		t.Fatal(err)
	}
	if err := r.Mkdir("/data"); err != ErrExist {
		t.Fatalf("duplicate mkdir: %v", err)
	}
	if err := r.Mkdir("/missing/sub"); err != ErrNotExist {
		t.Fatalf("mkdir under missing parent: %v", err)
	}
	if err := r.Create("/data/a.bin"); err != nil {
		t.Fatal(err)
	}
	if err := r.Create("/data/b.bin"); err != nil {
		t.Fatal(err)
	}
	fi, err := r.Stat("/data")
	if err != nil || !fi.IsDir {
		t.Fatalf("stat dir: %+v %v", fi, err)
	}
	names, err := r.Readdir("/data")
	if err != nil || len(names) != 2 || names[0] != "a.bin" || names[1] != "b.bin" {
		t.Fatalf("readdir: %v %v", names, err)
	}
	if _, err := r.Readdir("/data/a.bin"); err != ErrNotDir {
		t.Fatalf("readdir on file: %v", err)
	}
	if _, err := r.Stat("/nope"); err != ErrNotExist {
		t.Fatalf("stat missing: %v", err)
	}
}

func TestWriteReadRoundTripStriped(t *testing.T) {
	r := newRouter(4, 3)
	if err := r.Create("/f"); err != nil {
		t.Fatal(err)
	}
	// Write 1 MB in uneven chunks so stripe boundaries are crossed.
	rng := rand.New(rand.NewSource(1))
	var want bytes.Buffer
	for want.Len() < 1<<20 {
		chunk := make([]byte, rng.Intn(100000)+1)
		rng.Read(chunk)
		if _, err := r.Write("/f", chunk); err != nil {
			t.Fatal(err)
		}
		want.Write(chunk)
	}
	fi, err := r.Stat("/f")
	if err != nil || fi.Size != int64(want.Len()) {
		t.Fatalf("size = %d, want %d (%v)", fi.Size, want.Len(), err)
	}
	// Read back in random-size chunks from random offsets.
	got := make([]byte, want.Len())
	if n, err := r.ReadAt("/f", 0, got); err != nil || n != len(got) {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("striped round trip corrupted data")
	}
	// Random range reads.
	for i := 0; i < 50; i++ {
		off := rng.Intn(want.Len() - 1)
		n := rng.Intn(want.Len()-off) + 1
		buf := make([]byte, n)
		m, err := r.ReadAt("/f", int64(off), buf)
		if err != nil || m != n {
			t.Fatalf("range read off=%d n=%d: m=%d err=%v", off, n, m, err)
		}
		if !bytes.Equal(buf, want.Bytes()[off:off+n]) {
			t.Fatalf("range read mismatch at off=%d n=%d", off, n)
		}
	}
	// Reads past EOF are short.
	buf := make([]byte, 100)
	if n, err := r.ReadAt("/f", fi.Size-10, buf); err != nil || n != 10 {
		t.Fatalf("EOF read: n=%d err=%v", n, err)
	}
}

func TestUnlinkFreesSpace(t *testing.T) {
	sh := NewShard("s", 1<<20)
	r := NewRouter([]*Shard{sh}, 1, 1<<16)
	if err := r.Create("/x"); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 300<<10)
	if _, err := r.Write("/x", data); err != nil {
		t.Fatal(err)
	}
	if sh.Used() == 0 {
		t.Fatal("no space used after write")
	}
	if _, err := r.Unlink("/x"); err != nil {
		t.Fatal(err)
	}
	if sh.Used() != 0 {
		t.Fatalf("space leaked: %d bytes", sh.Used())
	}
	if _, err := r.Stat("/x"); err != ErrNotExist {
		t.Fatalf("stat after unlink: %v", err)
	}
	// Parent no longer lists it.
	names, _ := r.Readdir("/")
	for _, n := range names {
		if n == "x" {
			t.Fatal("parent still lists unlinked file")
		}
	}
}

func TestUnlinkDirectorySemantics(t *testing.T) {
	r := newRouter(2, 1)
	if err := r.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := r.Create("/d/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Unlink("/d"); err != ErrNotEmpty {
		t.Fatalf("unlink non-empty dir: %v", err)
	}
	if _, err := r.Unlink("/d/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Unlink("/d"); err != nil {
		t.Fatalf("unlink empty dir: %v", err)
	}
	if _, err := r.Unlink("/"); err != ErrNotEmpty {
		t.Fatalf("unlink root: %v", err)
	}
}

func TestWriteToMissingAndDirErrors(t *testing.T) {
	r := newRouter(2, 2)
	if _, err := r.Write("/ghost", []byte("x")); err != ErrNotExist {
		t.Fatalf("write missing: %v", err)
	}
	r.Mkdir("/d")
	if _, err := r.ReadAt("/f", -1, make([]byte, 1)); err != ErrBadOffset {
		t.Fatalf("negative offset: %v", err)
	}
}

// Property: for any sequence of appends, the concatenation read back
// equals the concatenation written, across shard/stripe configurations.
func TestStripedAppendProperty(t *testing.T) {
	f := func(chunks [][]byte, shardsSeed, stripesSeed uint8) bool {
		nShards := int(shardsSeed%4) + 1
		stripes := int(stripesSeed%3) + 1
		r := newRouter(nShards, stripes)
		if err := r.Create("/p"); err != nil {
			return false
		}
		var want bytes.Buffer
		for _, c := range chunks {
			if len(c) == 0 {
				continue
			}
			if _, err := r.Write("/p", c); err != nil {
				return false
			}
			want.Write(c)
		}
		got := make([]byte, want.Len())
		n, err := r.ReadAt("/p", 0, got)
		if err != nil || n != want.Len() {
			return false
		}
		return bytes.Equal(got, want.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Namespace placement is deterministic: the same path always lands on
// the same owner shard.
func TestOwnerDeterminism(t *testing.T) {
	r := newRouter(8, 1)
	for i := 0; i < 100; i++ {
		p := fmt.Sprintf("/dir/file-%d", i)
		a := r.owner(p).Name()
		for k := 0; k < 5; k++ {
			if r.owner(p).Name() != a {
				t.Fatal("owner changed between lookups")
			}
		}
	}
}

func TestRename(t *testing.T) {
	r := newRouter(3, 2)
	if err := r.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := r.Mkdir("/b"); err != nil {
		t.Fatal(err)
	}
	if err := r.Create("/a/f.tmp"); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 150000)
	rand.New(rand.NewSource(4)).Read(data)
	if _, err := r.Write("/a/f.tmp", data); err != nil {
		t.Fatal(err)
	}
	if err := r.Rename("/a/f.tmp", "/b/f.final"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Stat("/a/f.tmp"); err != ErrNotExist {
		t.Fatalf("source remains: %v", err)
	}
	got := make([]byte, len(data))
	if n, err := r.ReadAt("/b/f.final", 0, got); err != nil || n != len(data) {
		t.Fatalf("read renamed: n=%d err=%v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("rename corrupted data")
	}
	// Error cases.
	if err := r.Rename("/missing", "/x"); err != ErrNotExist {
		t.Fatalf("rename missing: %v", err)
	}
	if err := r.Rename("/b", "/c"); err != ErrIsDir {
		t.Fatalf("rename dir: %v", err)
	}
	r.Create("/exists")
	if err := r.Rename("/b/f.final", "/exists"); err != ErrExist {
		t.Fatalf("rename onto existing: %v", err)
	}
	if err := r.Rename("/b/f.final", "/nodir/sub"); err != ErrNotExist {
		t.Fatalf("rename into missing dir: %v", err)
	}
}
