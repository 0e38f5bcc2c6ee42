package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced run: a loop iteration (the
// root, whose ID is also the request ID of everything under it) or one
// client call inside it.
type span struct {
	name   string
	id     uint64
	parent uint64
	req    uint64
	start  time.Duration // since the tracer's epoch
	end    time.Duration
}

// maxSpans bounds the spans one generator keeps in memory.
const maxSpans = 1 << 20

// tracer hands out span IDs. Spans themselves live in each generator's
// recorder, so recording takes no lock; they are written out once the
// run ends. A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// nextID returns a fresh span ID (0 for a nil tracer).
func (t *tracer) nextID() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// root appends the loop span with the given ID.
func (t *tracer) root(spans []span, id uint64, name string, start, end time.Time) []span {
	if len(spans) >= maxSpans {
		return spans
	}
	return append(spans, span{name: name, id: id, req: id, start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
}

// child appends a call span under the loop span parent.
func (t *tracer) child(spans []span, parent uint64, name string, start, end time.Time) []span {
	if len(spans) >= maxSpans {
		return spans
	}
	return append(spans, span{name: name, id: t.next.Add(1), parent: parent, req: parent,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
}

// writeSpans writes spans as tab-separated rows to dir/name.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	p := filepath.Join(dir, name)
	f, err := os.Create(p)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req\tid\tparent\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.req, s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return p, f.Close()
}
