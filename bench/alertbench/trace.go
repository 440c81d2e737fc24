package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// loop share Loop; Parent is the span that caused this one (0 = root).
// Start and End are ns offsets from the phase's clock.
type span struct {
	Name       string
	ID, Parent uint64
	Loop       uint64
	Start, End int64
}

// spanBuf is a fixed-capacity in-memory span log owned by one goroutine.
// It is allocated in set-up and never grows: spans past the capacity are
// counted, not kept, so tracing cost stays flat.
type spanBuf struct {
	base uint64 // ids are base+index+1, unique across buffers
	// epoch is the zero of the probe replays' span clocks (drivers stamp
	// theirs against the run clock instead).
	epoch   time.Time
	spans   []span
	dropped int
}

func newSpanBuf(base uint64, capacity int) spanBuf {
	return spanBuf{base: base, epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// add records a span and returns its id (0 when the buffer is full).
func (b *spanBuf) add(name string, parent, loop uint64, start, end time.Duration) uint64 {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return 0
	}
	id := b.base + uint64(len(b.spans)) + 1
	b.spans = append(b.spans, span{Name: name, ID: id, Parent: parent, Loop: loop, Start: int64(start), End: int64(end)})
	return id
}

// extend moves a recorded span's end (a batch loop's parent closes with
// its last observe).
func (b *spanBuf) extend(id uint64, end time.Duration) {
	if id != 0 {
		b.spans[id-b.base-1].End = int64(end)
	}
}

// maxSpansWritten caps the JSONL file: a traced run holds millions of
// spans in memory, and the file exists to be read, not to be complete.
const maxSpansWritten = 50000

// writeSpans writes the run's and the probes' spans as JSON lines, at most
// maxSpansWritten of each.
func writeSpans(path string, run, probe []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, phase := range []struct {
		name  string
		spans []span
	}{{"run", run}, {"probe", probe}} {
		spans := phase.spans
		if len(spans) > maxSpansWritten {
			spans = spans[:maxSpansWritten]
		}
		for _, s := range spans {
			fmt.Fprintf(w, `{"phase":%q,"name":%q,"id":%d,"parent":%d,"loop":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				phase.name, s.Name, s.ID, s.Parent, s.Loop, s.Start, s.End)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
