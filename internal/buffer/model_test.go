package buffer

import (
	"math/rand"
	"testing"

	"bufir/internal/postings"
)

// referenceLRU is an executable specification of LRU over page IDs.
type referenceLRU struct {
	capacity int
	order    []postings.PageID // front = most recent
}

func (m *referenceLRU) access(p postings.PageID) (evicted postings.PageID, hit, didEvict bool) {
	for i, q := range m.order {
		if q == p {
			m.order = append(m.order[:i], m.order[i+1:]...)
			m.order = append([]postings.PageID{p}, m.order...)
			return 0, true, false
		}
	}
	if len(m.order) >= m.capacity {
		evicted = m.order[len(m.order)-1]
		m.order = m.order[:len(m.order)-1]
		didEvict = true
	}
	m.order = append([]postings.PageID{p}, m.order...)
	return evicted, false, didEvict
}

func (m *referenceLRU) contains(p postings.PageID) bool {
	for _, q := range m.order {
		if q == p {
			return true
		}
	}
	return false
}

// TestLRUAgainstModel replays long random access traces and checks the
// manager's resident set and hit/miss accounting against the
// reference model exactly.
func TestLRUAgainstModel(t *testing.T) {
	ix, st := testEnv(t)
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 20; trial++ {
		capacity := 1 + r.Intn(6)
		mgr, err := NewManager(capacity, st, ix, NewLRU())
		if err != nil {
			t.Fatal(err)
		}
		model := &referenceLRU{capacity: capacity}
		var hits, misses int64
		for op := 0; op < 400; op++ {
			p := postings.PageID(r.Intn(7))
			_, hit, _ := model.access(p)
			if hit {
				hits++
			} else {
				misses++
			}
			f, err := mgr.Get(p)
			if err != nil {
				t.Fatal(err)
			}
			mgr.Unpin(f)
			// Resident sets agree after every operation.
			for q := postings.PageID(0); q < 7; q++ {
				if mgr.Contains(q) != model.contains(q) {
					t.Fatalf("trial %d op %d: Contains(%d) = %v, model %v",
						trial, op, q, mgr.Contains(q), model.contains(q))
				}
			}
		}
		s := mgr.Stats()
		if s.Hits != hits || s.Misses != misses {
			t.Fatalf("trial %d: stats (%d,%d), model (%d,%d)", trial, s.Hits, s.Misses, hits, misses)
		}
	}
}

// TestRAPAgainstLinearScan: RAP's heap-based victim selection must
// always pick the same victim a brute-force scan over (value, offset
// desc, page) would pick, with each value computed from the spec —
// w*_{d,t} · w_{q,t} under the test's current weights — rather than
// read back from the policy's (lazily refreshed) cache.
func TestRAPAgainstLinearScan(t *testing.T) {
	ix, st := testEnv(t)
	r := rand.New(rand.NewSource(321))
	for trial := 0; trial < 20; trial++ {
		capacity := 2 + r.Intn(5)
		pol := NewRAP()
		mgr, err := NewManager(capacity, st, ix, pol)
		if err != nil {
			t.Fatal(err)
		}
		// Random query weights, re-keyed occasionally.
		var cur map[postings.TermID]float64
		setRandomQuery := func() {
			w := make(map[postings.TermID]float64, 3)
			for tm := postings.TermID(0); tm < 3; tm++ {
				if r.Intn(2) == 0 {
					w[tm] = float64(1 + r.Intn(5))
				}
			}
			cur = w
			mgr.SetQuery(func(tm postings.TermID) float64 { return w[tm] })
		}
		setRandomQuery()
		for op := 0; op < 300; op++ {
			if r.Intn(25) == 0 {
				setRandomQuery()
			}
			// Before a potential eviction, compute the brute-force
			// victim over the heap's frames from spec values.
			if len(pol.pq.frames) >= capacity {
				spec := func(f *Frame) float64 { return f.WStar * cur[f.Term] }
				want := bruteVictim(pol.pq.frames, spec)
				got := pol.Victim()
				if got != want {
					t.Fatalf("trial %d op %d: heap victim page %d, brute-force %d",
						trial, op, got.Page, want.Page)
				}
				for _, f := range pol.pq.frames {
					if f.value != spec(f) {
						t.Fatalf("trial %d op %d: page %d valued %g at eviction, spec %g",
							trial, op, f.Page, f.value, spec(f))
					}
				}
			}
			p := postings.PageID(r.Intn(7))
			f, err := mgr.Get(p)
			if err != nil {
				t.Fatal(err)
			}
			mgr.Unpin(f)
		}
	}
}

// bruteVictim selects the min-(value, offset desc, page) frame.
func bruteVictim(frames []*Frame, value func(*Frame) float64) *Frame {
	var best *Frame
	for _, f := range frames {
		if f.Pinned() {
			continue
		}
		if best == nil {
			best = f
			continue
		}
		if v, bv := value(f), value(best); v != bv {
			if v < bv {
				best = f
			}
			continue
		}
		if f.Offset != best.Offset {
			if f.Offset > best.Offset {
				best = f
			}
			continue
		}
		if f.Page < best.Page {
			best = f
		}
	}
	return best
}

// TestShardedManagerProperties replays random traces with pins held
// across operations against ShardedManager and checks its invariants
// after every step: the resident union never exceeds capacity, pinned
// pages are never evicted, b_t always equals a brute-force recount of
// buffered pages, and the hit/miss ledger balances the fetch count.
func TestShardedManagerProperties(t *testing.T) {
	ix, st := testEnv(t)
	r := rand.New(rand.NewSource(777))
	factories := make([]func(int) Policy, 0, len(PolicyNames))
	for _, name := range PolicyNames {
		mk, err := PolicyFactory(name)
		if err != nil {
			t.Fatal(err)
		}
		factories = append(factories, mk)
	}
	for trial := 0; trial < 30; trial++ {
		nshards := 1 + r.Intn(4)
		capacity := nshards + r.Intn(7-nshards+1)
		mgr, err := NewShardedManager(capacity, nshards, st, ix, factories[trial%len(factories)])
		if err != nil {
			t.Fatal(err)
		}
		mgr.SetQuery(func(tm postings.TermID) float64 { return float64(tm + 1) })
		var held []*Frame
		var fetches, noVictims int64
		for op := 0; op < 400; op++ {
			switch {
			case len(held) > 0 && r.Intn(3) == 0:
				// Release a random held pin.
				i := r.Intn(len(held))
				mgr.Unpin(held[i])
				held = append(held[:i], held[i+1:]...)
			default:
				p := postings.PageID(r.Intn(7))
				f, _, err := mgr.Fetch(p)
				if err == ErrNoVictim {
					noVictims++ // every frame of p's shard is pinned: legal
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				fetches++
				if r.Intn(2) == 0 && len(held) < capacity-1 {
					held = append(held, f)
				} else {
					mgr.Unpin(f)
				}
			}

			if got := mgr.InUse(); got > capacity {
				t.Fatalf("trial %d op %d: InUse %d > capacity %d", trial, op, got, capacity)
			}
			occ := mgr.ShardOccupancy()
			if len(occ) != nshards {
				t.Fatalf("trial %d op %d: %d occupancy entries for %d shards", trial, op, len(occ), nshards)
			}
			occSum := 0
			for _, n := range occ {
				occSum += n
			}
			if occSum != mgr.InUse() {
				t.Fatalf("trial %d op %d: shard occupancy sums to %d, InUse %d", trial, op, occSum, mgr.InUse())
			}
			for _, f := range held {
				if !mgr.Contains(f.Page) {
					t.Fatalf("trial %d op %d: pinned page %d was evicted", trial, op, f.Page)
				}
			}
			for tm := postings.TermID(0); tm < postings.TermID(len(ix.Terms)); tm++ {
				brute := 0
				for i := 0; i < ix.Terms[tm].NumPages; i++ {
					if mgr.Contains(ix.Terms[tm].FirstPage + postings.PageID(i)) {
						brute++
					}
				}
				if got := mgr.ResidentPages(tm); got != brute {
					t.Fatalf("trial %d op %d: b_%d = %d, brute-force %d", trial, op, tm, got, brute)
				}
			}
		}
		s := mgr.Stats()
		if s.Hits+s.Misses != fetches {
			t.Fatalf("trial %d: hits %d + misses %d != %d successful fetches", trial, s.Hits, s.Misses, fetches)
		}
		for _, f := range held {
			mgr.Unpin(f)
		}
	}
}

// TestShardedSingleShardMatchesManager: a 1-shard ShardedManager under
// single-threaded access must be bit-for-bit equivalent to Manager —
// same resident set, same per-term b_t, same hit/miss/eviction
// counters — on arbitrary traces. This is the equivalence the
// concurrency experiment's exactness guarantee rests on.
func TestShardedSingleShardMatchesManager(t *testing.T) {
	ix, st := testEnv(t)
	r := rand.New(rand.NewSource(4242))
	for _, name := range PolicyNames {
		mk, err := PolicyFactory(name)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			capacity := 1 + r.Intn(6)
			ref, err := NewManager(capacity, st, ix, mk(capacity))
			if err != nil {
				t.Fatal(err)
			}
			mgr, err := NewShardedManager(capacity, 1, st, ix, mk)
			if err != nil {
				t.Fatal(err)
			}
			for op := 0; op < 400; op++ {
				if r.Intn(40) == 0 {
					w := make(map[postings.TermID]float64, 3)
					for tm := postings.TermID(0); tm < 3; tm++ {
						w[tm] = float64(r.Intn(5))
					}
					ref.SetQuery(func(tm postings.TermID) float64 { return w[tm] })
					mgr.SetQuery(func(tm postings.TermID) float64 { return w[tm] })
				}
				if r.Intn(80) == 0 {
					ref.Flush()
					mgr.Flush()
				}
				p := postings.PageID(r.Intn(7))
				fr, err := ref.Get(p)
				if err != nil {
					t.Fatal(err)
				}
				ref.Unpin(fr)
				fs, err := mgr.Get(p)
				if err != nil {
					t.Fatal(err)
				}
				mgr.Unpin(fs)
				for q := postings.PageID(0); q < 7; q++ {
					if ref.Contains(q) != mgr.Contains(q) {
						t.Fatalf("%s trial %d op %d: Contains(%d) diverged (Manager %v, sharded %v)",
							name, trial, op, q, ref.Contains(q), mgr.Contains(q))
					}
				}
				for tm := postings.TermID(0); tm < 3; tm++ {
					if ref.ResidentPages(tm) != mgr.ResidentPages(tm) {
						t.Fatalf("%s trial %d op %d: b_%d diverged", name, trial, op, tm)
					}
				}
			}
			rs, ss := ref.Stats(), mgr.Stats()
			if rs != ss {
				t.Fatalf("%s trial %d: stats diverged: Manager %+v, sharded %+v", name, trial, rs, ss)
			}
		}
	}
}

// TestRAPHeapIndicesConsistent: after arbitrary operations every
// frame's heapIdx must point at itself (the container/heap contract
// the Remove path depends on).
func TestRAPHeapIndicesConsistent(t *testing.T) {
	ix, st := testEnv(t)
	pol := NewRAP()
	mgr, _ := NewManager(3, st, ix, pol)
	r := rand.New(rand.NewSource(9))
	mgr.SetQuery(func(tm postings.TermID) float64 { return float64(tm + 1) })
	for op := 0; op < 500; op++ {
		p := postings.PageID(r.Intn(7))
		f, err := mgr.Get(p)
		if err != nil {
			t.Fatal(err)
		}
		mgr.Unpin(f)
		if op%50 == 0 {
			mgr.SetQuery(func(tm postings.TermID) float64 { return float64(r.Intn(4)) })
		}
		for i, fr := range pol.pq.frames {
			if fr.heapIdx != i {
				t.Fatalf("op %d: frame %d has heapIdx %d at position %d", op, fr.Page, fr.heapIdx, i)
			}
		}
	}
}
