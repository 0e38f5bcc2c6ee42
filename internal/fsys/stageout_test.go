package fsys

import (
	"bytes"
	"testing"
)

// RestoreFile installs the finished entry in one step: a concurrent
// stat or stage-out harvest sees the previous incarnation or the
// restored one — never the path absent, a partial size, or the
// creation-default generation. Run under -race it also pins that the
// harvest reads the layout only under the shard lock.
func TestRestoreFileAtomic(t *testing.T) {
	sh := NewShard("bb0", 8<<20)
	data := bytes.Repeat([]byte("restored"), 1024)
	const gen = 7
	if err := sh.RestoreFile("/f", data, 1, 4096, []string{"bb0"}, gen); err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() {
		for i := 0; i < 300; i++ {
			if err := sh.RestoreFile("/f", data, 1, 4096, []string{"bb0"}, gen); err != nil {
				done <- err
				return
			}
			sh.MarkDirtyAll("/f")
		}
		done <- nil
	}()
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
		fi, err := sh.Stat("/f")
		if err != nil || fi.LayoutGen != gen || fi.Size != int64(len(data)) {
			t.Fatalf("mid-restore stat = {gen %d size %d} err=%v, want {gen %d size %d}",
				fi.LayoutGen, fi.Size, err, gen, len(data))
		}
		for _, c := range sh.CollectDirty(0, 0) {
			if c.Path == "/f" && c.LayoutGen != gen {
				t.Fatalf("harvested a chunk under layout gen %d, want %d", c.LayoutGen, gen)
			}
		}
	}
}
