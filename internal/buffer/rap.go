package buffer

import (
	"container/heap"

	"bufir/internal/postings"
)

// RAP is the paper's Ranking-Aware Policy (§3.3). Each buffered page
// is assigned the replacement value
//
//	value = w*_{d,t} · w_{q,t}
//
// where w*_{d,t} is the highest document weight for any entry on the
// page (precomputed at index build time and carried on the frame) and
// w_{q,t} is the weight of the page's term in the query currently
// being processed (0 if the term is not in the query — e.g. it was
// dropped during refinement). The page with the lowest value is the
// eviction victim; ties are broken by evicting the tail of a list
// before its head (higher page offset first), and then by PageID for
// determinism.
//
// Values are static within a query: w* is a page constant and w_{q,t}
// only changes when the query changes. A value only matters when it
// chooses a victim, so RAP re-keys lazily — the "reorganizing
// capability" the paper calls for, paid once per eviction-bearing
// query instead of once per announcement. SetQuery records the new
// weights and marks the queue stale; while stale, admissions append
// and removals swap-delete in O(1); the first Victim after an
// announcement recomputes every value and rebuilds the heap. Because
// the heap order is total (value, offset, then the unique PageID),
// the victim does not depend on the heap's layout, so lazy and eager
// re-keying choose identical victims.
type RAP struct {
	pq     rapHeap
	weight QueryWeights
	// stale is set by SetQuery: the frames' cached values (and so the
	// heap order) predate the current weights.
	stale bool
}

// NewRAP returns a fresh RAP policy. Until the first SetQuery all
// pages value to 0 (equivalent to "no current query").
func NewRAP() *RAP {
	p := &RAP{weight: func(postings.TermID) float64 { return 0 }}
	p.pq.tailFirst = true
	return p
}

// NewRAPHeadFirst returns a RAP variant that breaks value ties by
// evicting the HEAD of a list before its tail — the opposite of the
// paper's rule. It exists for the ablation study quantifying how much
// the tail-before-head rule contributes (DESIGN.md §5).
func NewRAPHeadFirst() *RAP {
	return &RAP{weight: func(postings.TermID) float64 { return 0 }}
}

// Name implements Policy.
func (p *RAP) Name() string {
	if p.pq.tailFirst {
		return "RAP"
	}
	return "RAP-headfirst"
}

// Admitted implements Policy.
func (p *RAP) Admitted(f *Frame) {
	if p.stale {
		p.pq.Push(f) // valued by the next Victim's re-key
		return
	}
	f.value = f.WStar * p.currentWeight(f)
	heap.Push(&p.pq, f)
}

// Touched implements Policy: RAP values do not depend on recency, so a
// hit changes nothing.
func (p *RAP) Touched(*Frame) {}

// Removed implements Policy.
func (p *RAP) Removed(f *Frame) {
	if p.stale {
		p.pq.swapDelete(f.heapIdx)
		return
	}
	heap.Remove(&p.pq, f.heapIdx)
}

// Victim implements Policy: the minimum-value unpinned frame. Pinned
// frames are skipped by temporarily popping them; they are pushed back
// before returning, so the heap is unchanged apart from ordering among
// equal keys (which the tie-break keys make total, hence deterministic).
func (p *RAP) Victim() *Frame {
	if p.stale {
		p.rekey()
	}
	var pinned []*Frame
	var victim *Frame
	for p.pq.Len() > 0 {
		f := heap.Pop(&p.pq).(*Frame)
		if !f.Pinned() {
			victim = f
			break
		}
		pinned = append(pinned, f)
	}
	if victim != nil {
		heap.Push(&p.pq, victim) // leave in place; Manager will call Removed
	}
	for _, f := range pinned {
		heap.Push(&p.pq, f)
	}
	return victim
}

// SetQuery implements Policy: record the new query weights and mark
// the queue stale. O(1): the re-key is deferred to the next Victim, so
// a query that evicts nothing never pays for it.
func (p *RAP) SetQuery(w QueryWeights) {
	p.weight = w
	p.stale = true
}

// rekey recomputes every frame's replacement value under the current
// weights and rebuilds the heap.
func (p *RAP) rekey() {
	for _, f := range p.pq.frames {
		f.value = f.WStar * p.currentWeight(f)
	}
	heap.Init(&p.pq)
	p.stale = false
}

func (p *RAP) currentWeight(f *Frame) float64 {
	if p.weight == nil {
		return 0
	}
	return p.weight(f.Term)
}

// rapHeap is a min-heap of frames keyed by (value asc, offset desc,
// page asc). Evicting higher offsets first realizes the paper's
// "evict the tail of the list before the head" rule for equal-value
// pages (notably the value-0 pages of dropped terms). The ablation
// variant flips the offset comparison.
type rapHeap struct {
	frames    []*Frame
	tailFirst bool
}

func (h *rapHeap) Len() int { return len(h.frames) }

func (h *rapHeap) Less(i, j int) bool {
	a, b := h.frames[i], h.frames[j]
	if a.value != b.value {
		return a.value < b.value
	}
	if a.Offset != b.Offset {
		if h.tailFirst {
			return a.Offset > b.Offset
		}
		return a.Offset < b.Offset
	}
	return a.Page < b.Page
}

func (h *rapHeap) Swap(i, j int) {
	h.frames[i], h.frames[j] = h.frames[j], h.frames[i]
	h.frames[i].heapIdx = i
	h.frames[j].heapIdx = j
}

func (h *rapHeap) Push(x any) {
	f := x.(*Frame)
	f.heapIdx = len(h.frames)
	h.frames = append(h.frames, f)
}

// swapDelete removes the frame at i by moving the last frame into its
// slot, without restoring the heap property: only for a stale queue,
// which is re-heapified before the next victim choice.
func (h *rapHeap) swapDelete(i int) {
	n := len(h.frames) - 1
	f := h.frames[i]
	if i != n {
		h.frames[i] = h.frames[n]
		h.frames[i].heapIdx = i
	}
	h.frames[n] = nil
	h.frames = h.frames[:n]
	f.heapIdx = -1
}

func (h *rapHeap) Pop() any {
	n := len(h.frames)
	f := h.frames[n-1]
	h.frames[n-1] = nil
	f.heapIdx = -1
	h.frames = h.frames[:n-1]
	return f
}
