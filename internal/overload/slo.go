package overload

import (
	"sort"
	"sync"

	"github.com/alert-project/alert/internal/metrics"
)

// defaultSLOStreams caps how many distinct streams the tracker keeps
// per-stream rows for; streams past the cap share an overflow bucket so a
// million-stream deployment's stats response stays bounded.
const defaultSLOStreams = 1024

// SLOTracker records per-stream deadline attainment: decides served within
// their deadline, decides served late, and requests the gate shed. All
// methods are safe for concurrent use.
type SLOTracker struct {
	mu       sync.Mutex
	cells    map[int]*sloCell
	max      int
	overflow sloCell
}

type sloCell struct {
	served int64
	met    int64
	shed   int64
}

// NewSLOTracker builds a tracker keeping up to maxStreams per-stream rows
// (0 = the 1024 default).
func NewSLOTracker(maxStreams int) *SLOTracker {
	if maxStreams <= 0 {
		maxStreams = defaultSLOStreams
	}
	return &SLOTracker{cells: make(map[int]*sloCell), max: maxStreams}
}

func (t *SLOTracker) cell(stream int) *sloCell {
	if c, ok := t.cells[stream]; ok {
		return c
	}
	if len(t.cells) >= t.max {
		return &t.overflow
	}
	c := &sloCell{}
	t.cells[stream] = c
	return c
}

// RecordServed folds in one served decide and whether it met its deadline.
func (t *SLOTracker) RecordServed(stream int, met bool) {
	t.mu.Lock()
	c := t.cell(stream)
	c.served++
	if met {
		c.met++
	}
	t.mu.Unlock()
}

// RecordRefused folds in one decide the gate refused — a deadline miss
// from the stream's point of view.
func (t *SLOTracker) RecordRefused(stream int) {
	t.mu.Lock()
	t.cell(stream).shed++
	t.mu.Unlock()
}

// Snapshot returns per-stream rows sorted by stream id, with the overflow
// bucket (stream -1) last when populated. Nil when nothing was recorded.
func (t *SLOTracker) Snapshot() []metrics.StreamSLO {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.cells) == 0 && t.overflow == (sloCell{}) {
		return nil
	}
	out := make([]metrics.StreamSLO, 0, len(t.cells)+1)
	for id, c := range t.cells {
		out = append(out, row(id, c))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stream < out[j].Stream })
	if t.overflow != (sloCell{}) {
		out = append(out, row(-1, &t.overflow))
	}
	return out
}

func row(id int, c *sloCell) metrics.StreamSLO {
	r := metrics.StreamSLO{Stream: id, Served: c.served, Met: c.met, Shed: c.shed}
	if n := c.served + c.shed; n > 0 {
		r.Attainment = float64(r.Met) / float64(n)
	}
	return r
}
