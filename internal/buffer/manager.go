// Package buffer implements the server buffer manager of the paper's
// simulator (§4.1): a fixed-capacity pool of inverted-list pages with
// pluggable replacement policies (LRU, MRU, and the paper's
// Ranking-Aware Policy, RAP), pin/unpin semantics, per-term resident
// page counts (the b_t values the BAF algorithm inquires about, Figure
// 2 step 3(a)iii), and hit/miss/eviction accounting.
package buffer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"bufir/internal/postings"
)

// PageReader is the storage surface the buffer manager needs: a
// counted page fetch, plus a context-bounded form that abandons the
// read (simulated latency included) when the caller's request is
// canceled or past its deadline. It is the read half of
// storage.PageStore, so every backend — the in-memory simulator, its
// compressed variant, the file-backed store, and any fault-injection
// stack over them — plugs in unchanged.
type PageReader interface {
	Read(id postings.PageID) ([]postings.Entry, error)
	ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error)
}

// Frame is a buffer slot holding one inverted-list page. Policy
// bookkeeping (list links, heap position) is embedded so policies are
// allocation-free on the hot path.
type Frame struct {
	Page   postings.PageID
	Term   postings.TermID
	Offset int32   // page index within its term's list
	WStar  float64 // w*_{d,t}: max document weight on the page

	data []postings.Entry
	pin  int

	// loading is non-nil while the page is being read from storage
	// outside the shard latch (ShardedManager only) and is closed when
	// the read completes; loadErr is set before the close on failure.
	// Both are written under the owning shard's mutex; waiters read
	// loadErr only after the channel closes (the close is the memory
	// barrier).
	loading chan struct{}
	loadErr error
	// nonResident marks a frame whose load failed: its term's residency
	// count was surrendered at failure time (BAF's b_t must not count
	// data-less pages), so removal must not decrement it again.
	nonResident bool

	// intrusive doubly-linked list (LRU/MRU recency chain)
	prev, next *Frame
	// RAP priority-queue bookkeeping
	value   float64
	heapIdx int
}

// Data returns the page's postings entries. Valid only while the
// frame is pinned.
func (f *Frame) Data() []postings.Entry { return f.data }

// Pinned reports whether the frame is currently pinned.
func (f *Frame) Pinned() bool { return f.pin > 0 }

// QueryWeights reports w_{q,t} for a term under the current query (0
// for terms not in the query). RAP uses it to value pages.
//
// The function must be pure and must not change once announced: RAP
// re-keys lazily, so it may call the function at any later eviction
// (from whichever goroutine holds the pool's latch then) until the
// next announcement replaces it. Close over an immutable snapshot of
// the query, never over state the caller goes on to mutate.
type QueryWeights func(t postings.TermID) float64

// Policy is a buffer replacement policy. The Manager serializes all
// calls, so implementations need no internal locking.
type Policy interface {
	// Name identifies the policy ("LRU", "MRU", "RAP", ...).
	Name() string
	// Admitted is called after a page is loaded into frame f.
	Admitted(f *Frame)
	// Touched is called on every buffer hit for f.
	Touched(f *Frame)
	// Removed is called when f leaves the pool (eviction or flush).
	Removed(f *Frame)
	// Victim returns the frame the policy wants evicted, skipping
	// pinned frames; nil if every frame is pinned. The Manager calls
	// Removed on the returned frame.
	Victim() *Frame
	// SetQuery informs the policy that a new query is being evaluated.
	// Only RAP reacts: page replacement values depend on w_{q,t}, and
	// it applies the new weights at its next Victim.
	SetQuery(w QueryWeights)
}

// ErrNoVictim is returned by Get when the pool is full and every frame
// is pinned.
var ErrNoVictim = errors.New("buffer: all frames pinned, cannot evict")

// Stats aggregates buffer-manager counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Manager is the buffer manager. It is safe for concurrent use.
type Manager struct {
	mu       sync.Mutex
	capacity int
	store    PageReader
	ix       *postings.Index
	policy   Policy
	frames   map[postings.PageID]*Frame
	resident []int // per-term count of buffered pages (b_t)
	stats    Stats

	// retry is the fault-tolerance policy of the load path (see
	// RetryPolicy). Written only by SetRetryPolicy at setup time.
	retry RetryPolicy
	// space, when non-nil, is closed (and replaced by nil) the next
	// time a frame becomes evictable — wakes fetches parked in
	// bounded-wait backpressure (VictimWait). Guarded by mu.
	space chan struct{}
}

// NewManager creates a buffer manager of the given page capacity over
// the store, using metadata from ix to label frames with their term,
// list offset and w* value. capacity must be >= 1.
func NewManager(capacity int, store PageReader, ix *postings.Index, policy Policy) (*Manager, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: capacity %d < 1", capacity)
	}
	if policy == nil {
		return nil, errors.New("buffer: nil policy")
	}
	if store == nil {
		return nil, errors.New("buffer: nil store")
	}
	return &Manager{
		capacity: capacity,
		store:    store,
		ix:       ix,
		policy:   policy,
		frames:   make(map[postings.PageID]*Frame, capacity),
		resident: make([]int, len(ix.Terms)),
	}, nil
}

// Capacity returns the pool size in pages.
func (m *Manager) Capacity() int { return m.capacity }

// Policy returns the replacement policy's name.
func (m *Manager) Policy() string { return m.policy.Name() }

// Get fixes page id in the pool, loading it from the store on a miss
// (evicting a victim first if the pool is full), and returns the
// pinned frame. The caller must Unpin the frame when done with it.
func (m *Manager) Get(id postings.PageID) (*Frame, error) {
	f, _, err := m.Fetch(id)
	return f, err
}

// Fetch is Get plus a report of whether the call missed (i.e. caused a
// disk read). Evaluators use the flag to keep per-session read counts
// confined, so concurrent sessions on a shared pool cannot pollute
// each other's statistics.
func (m *Manager) Fetch(id postings.PageID) (*Frame, bool, error) {
	return m.FetchContext(context.Background(), id)
}

// FetchContext is Fetch bounded by a context: a dead context fails
// before taking the latch, and a miss's disk read is abandoned as soon
// as ctx is canceled or expires (no frame stays pinned, no counters
// move). Buffer hits are never refused — the page is already in
// memory, so handing it out costs nothing. The single-latch Manager
// performs its I/O inside the latch (by design: it is the serial,
// bit-for-bit-reproducible pool), so one session's cancellation does
// not unblock another's Fetch that is queued on the latch behind it.
func (m *Manager) FetchContext(ctx context.Context, id postings.PageID) (*Frame, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	// The reservation loop: normally one pass; with bounded-wait
	// backpressure (VictimWait > 0) a fully-pinned pool parks here —
	// off the latch — until a pin drops, then re-checks from the top
	// (the page may have arrived meanwhile, turning the miss into a
	// hit). Same semantics as the sharded pool's reservation loop.
	var noVictim *time.Timer
	for {
		if f, ok := m.frames[id]; ok {
			m.stats.Hits++
			f.pin++
			m.policy.Touched(f)
			if noVictim != nil {
				noVictim.Stop()
			}
			return f, false, nil
		}
		if len(m.frames) < m.capacity {
			break
		}
		victim := m.policy.Victim()
		if victim != nil {
			m.removeLocked(victim)
			m.stats.Evictions++
			break
		}
		if m.retry.VictimWait <= 0 {
			return nil, false, ErrNoVictim
		}
		if m.space == nil {
			m.space = make(chan struct{})
		}
		space := m.space
		if noVictim == nil {
			noVictim = time.NewTimer(m.retry.VictimWait)
			defer noVictim.Stop()
		}
		m.mu.Unlock()
		var werr error
		select {
		case <-space:
		case <-noVictim.C:
			werr = ErrNoVictim
		case <-ctx.Done():
			werr = ctx.Err()
		}
		m.mu.Lock()
		if werr != nil {
			return nil, false, werr
		}
	}

	// Miss: load (inside the latch, by design — the serial pool). Load
	// errors leave no trace: the frame was never created, no counters
	// moved, residency never rose; the same net effect the sharded
	// pool reaches by undoing its provisional reservation.
	data, err := loadWithRetry(ctx, m.store, m.retry, id)
	if err != nil {
		return nil, false, fmt.Errorf("buffer: load page %d: %w", id, err)
	}
	m.stats.Misses++
	f := &Frame{
		Page:   id,
		Term:   m.ix.TermOfPage(id),
		Offset: m.ix.PageOffset(id),
		WStar:  m.ix.PageWStar(id),
		data:   data,
		pin:    1,
	}
	m.frames[id] = f
	m.resident[f.Term]++
	m.policy.Admitted(f)
	return f, true, nil
}

// Unpin releases one pin on the frame. Unpinning an unpinned frame is
// a programming error and panics.
func (m *Manager) Unpin(f *Frame) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f.pin <= 0 {
		panic(fmt.Sprintf("buffer: unpin of unpinned page %d", f.Page))
	}
	f.pin--
	if f.pin == 0 && m.space != nil {
		close(m.space)
		m.space = nil
	}
}

// Contains reports whether a page is currently buffered (without
// touching it: no policy state changes, matching the paper's b_t
// inquiry which must not perturb replacement order).
func (m *Manager) Contains(id postings.PageID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.frames[id]
	return ok
}

// ResidentPages returns b_t: how many pages of term t's inverted list
// are currently buffered (Figure 2, step 3(a)iii).
func (m *Manager) ResidentPages(t postings.TermID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resident[t]
}

// InUse returns the number of occupied frames.
func (m *Manager) InUse() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.frames)
}

// PinnedFrames returns the number of frames with at least one pin.
// Leak checks assert this is zero at quiescence: every code path —
// including canceled and expired requests — must balance its pins.
func (m *Manager) PinnedFrames() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, f := range m.frames {
		if f.pin > 0 {
			n++
		}
	}
	return n
}

// ShardOccupancy reports the single latch domain's occupancy: the
// whole pool is one shard.
func (m *Manager) ShardOccupancy() []int {
	return []int{m.InUse()}
}

// SetQuery announces the query about to be evaluated by supplying its
// term weights w_{q,t}. LRU and MRU ignore this; RAP records the
// weights and re-keys the buffered pages' replacement values at its
// next eviction (§3.3: values change between queries, so a
// reorganizing capability is required). The announcement itself is
// O(1) under the latch.
func (m *Manager) SetQuery(w QueryWeights) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if w == nil {
		w = func(postings.TermID) float64 { return 0 }
	}
	m.policy.SetQuery(w)
}

// Flush empties the pool (used to cold-start refinement sequences).
// Flushing with pinned pages is a programming error and panics.
func (m *Manager) Flush() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.frames {
		if f.pin > 0 {
			panic(fmt.Sprintf("buffer: flush with pinned page %d", f.Page))
		}
	}
	for _, f := range m.frames {
		m.removeLocked(f)
	}
	if m.space != nil {
		close(m.space)
		m.space = nil
	}
}

// Stats returns a snapshot of the hit/miss/eviction counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ResetStats zeroes the counters (pool contents are untouched).
func (m *Manager) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats = Stats{}
}

// PolicyStats implements PoolManager: the policy's adaptive gauges, or
// ok == false when the policy does not report stats (every static
// policy).
func (m *Manager) PolicyStats() (PolicyStats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sr, ok := m.policy.(StatsReporter); ok {
		return sr.PolicyStats(), true
	}
	return PolicyStats{}, false
}

// removeLocked detaches f from the pool. Caller holds m.mu.
func (m *Manager) removeLocked(f *Frame) {
	m.policy.Removed(f)
	delete(m.frames, f.Page)
	m.resident[f.Term]--
}

// SetRetryPolicy installs the fault-tolerance policy of the load path
// (retry/backoff of transient load errors, bounded-wait backpressure
// on a fully-pinned pool). The zero policy — the default — disables
// both. Call at setup time, before the pool is shared between
// goroutines; it is not synchronized with concurrent fetches.
func (m *Manager) SetRetryPolicy(rp RetryPolicy) { m.retry = rp }

// RetryPolicy returns the installed fault-tolerance policy.
func (m *Manager) RetryPolicy() RetryPolicy { return m.retry }
