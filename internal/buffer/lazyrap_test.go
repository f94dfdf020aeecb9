package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bufir/internal/postings"
	"bufir/internal/storage"
)

// eagerRAP is the reference RAP the lazy implementation must match: it
// values every resident page the moment a query is announced and every
// admitted page the moment it arrives (the paper's re-key-per-query
// reading of §3.3), and picks victims by a linear scan over (value asc,
// offset desc — asc for the head-first variant —, page asc). It shares
// no code with RAP's heap.
type eagerRAP struct {
	tailFirst bool
	weight    QueryWeights
	frames    []*Frame
}

func newEagerRAP(tailFirst bool) *eagerRAP {
	return &eagerRAP{tailFirst: tailFirst, weight: func(postings.TermID) float64 { return 0 }}
}

func (p *eagerRAP) Name() string { return "eager-RAP" }

func (p *eagerRAP) Admitted(f *Frame) {
	f.value = f.WStar * p.weight(f.Term)
	p.frames = append(p.frames, f)
}

func (p *eagerRAP) Touched(*Frame) {}

func (p *eagerRAP) Removed(f *Frame) {
	for i, g := range p.frames {
		if g == f {
			p.frames = append(p.frames[:i], p.frames[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("eagerRAP: removing unknown page %d", f.Page))
}

func (p *eagerRAP) SetQuery(w QueryWeights) {
	p.weight = w
	for _, f := range p.frames {
		f.value = f.WStar * w(f.Term)
	}
}

func (p *eagerRAP) Victim() *Frame {
	var best *Frame
	for _, f := range p.frames {
		if f.Pinned() {
			continue
		}
		if best == nil || p.before(f, best) {
			best = f
		}
	}
	return best
}

func (p *eagerRAP) before(a, b *Frame) bool {
	if a.value != b.value {
		return a.value < b.value
	}
	if a.Offset != b.Offset {
		return (a.Offset > b.Offset) == p.tailFirst
	}
	return a.Page < b.Page
}

// victimLog records every victim a policy hands its manager.
type victimLog struct {
	Policy
	log *[]postings.PageID
}

func (v victimLog) Victim() *Frame {
	f := v.Policy.Victim()
	if f != nil {
		*v.log = append(*v.log, f.Page)
	}
	return f
}

// parityIndex builds a random index: a handful of terms with short
// lists of small, tie-prone frequencies, so that equal replacement
// values — and with them the offset and PageID tie-breaks — are common.
func parityIndex(t *testing.T, r *rand.Rand) (*postings.Index, *storage.Store) {
	t.Helper()
	nterms := 3 + r.Intn(4)
	lists := make([]postings.TermPostings, nterms)
	for i := range lists {
		n := 1 + r.Intn(9)
		entries := make([]postings.Entry, n)
		f := int32(2 + r.Intn(4))
		for j := range entries {
			entries[j] = postings.Entry{Doc: postings.DocID(j), Freq: f}
			if f > 1 && r.Intn(2) == 0 {
				f--
			}
		}
		lists[i] = postings.TermPostings{Name: fmt.Sprintf("t%d", i), Entries: entries}
	}
	ix, pages, err := postings.Build(lists, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	return ix, storage.NewStore(pages)
}

// parityPool is one manager under test plus the handles the driver
// needs: its fault-injecting store, its victim log, its held pins.
type parityPool struct {
	pool    PoolManager
	store   *flakyStore
	victims []postings.PageID
	held    []*Frame
}

// TestRAPLazyEagerParity drives random sequences of fetches (hits,
// admissions, evictions), announcements, held pins, fault-poisoned
// loads, flushes and generation bumps through pairs of pools that
// differ only in RAP's re-keying — lazy (the policy under test) versus
// the eager reference above — and asserts identical victims, errors
// and counters after every step. It covers RAP, RAP-headfirst and
// ADAPTIVE (whose RAP expert and RAP shadow are swapped for the
// reference) on Manager and on 1- and 3-shard ShardedManagers. The
// removals that happen while the lazy queue is stale are the point:
// Flush right after an announcement, a sharded load that fails after
// its frame was admitted, and a generation bump, which flushes the
// superseded generation's frames and carries the policy instances over
// to a pool on the next generation's index.
func TestRAPLazyEagerParity(t *testing.T) {
	type variant struct {
		name      string
		lazy, ref func(capacity int) Policy
	}
	variants := []variant{
		{"RAP", func(int) Policy { return NewRAP() }, func(int) Policy { return newEagerRAP(true) }},
		{"RAP-headfirst", func(int) Policy { return NewRAPHeadFirst() }, func(int) Policy { return newEagerRAP(false) }},
		{"ADAPTIVE", func(c int) Policy { return NewAdaptive(c) }, func(c int) Policy {
			return newAdaptive(c, func() Policy { return newEagerRAP(true) })
		}},
	}
	for _, v := range variants {
		for _, nshards := range []int{0, 1, 3} { // 0 = Manager
			name := fmt.Sprintf("%s/manager", v.name)
			if nshards > 0 {
				name = fmt.Sprintf("%s/sharded-%d", v.name, nshards)
			}
			t.Run(name, func(t *testing.T) {
				for seed := int64(1); seed <= 12; seed++ {
					runLazyEagerParity(t, seed, nshards, v.lazy, v.ref)
				}
			})
		}
	}
}

func runLazyEagerParity(t *testing.T, seed int64, nshards int, lazyMk, refMk func(int) Policy) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	ix, st := parityIndex(t, r)
	capacity := 3 + r.Intn(6)
	if capacity < nshards {
		capacity = nshards
	}

	// Each side keeps its policy instances so a generation bump can
	// carry them over to the next generation's pool.
	sides := [2]*parityPool{{}, {}}
	var pols [2][]Policy
	build := func(i int, mk func(int) Policy) {
		p := sides[i]
		p.store = &flakyStore{inner: st, fail: map[postings.PageID]int{}}
		newPol := func(c int) Policy {
			pol := mk(c)
			pols[i] = append(pols[i], pol)
			return victimLog{Policy: pol, log: &p.victims}
		}
		if pols[i] != nil { // generation bump: reuse the instances
			old := pols[i]
			pols[i] = nil
			k := 0
			newPol = func(int) Policy {
				pol := old[k]
				k++
				pols[i] = append(pols[i], pol)
				return victimLog{Policy: pol, log: &p.victims}
			}
		}
		if nshards == 0 {
			m, err := NewManager(capacity, p.store, ix, newPol(capacity))
			if err != nil {
				t.Fatal(err)
			}
			p.pool = m
			return
		}
		m, err := NewShardedManager(capacity, nshards, p.store, ix, newPol)
		if err != nil {
			t.Fatal(err)
		}
		p.pool = m
	}
	build(0, lazyMk)
	build(1, refMk)

	announce := func() {
		w := make(map[postings.TermID]float64, len(ix.Terms))
		for tm := range ix.Terms {
			if r.Intn(3) > 0 {
				w[postings.TermID(tm)] = float64(r.Intn(3))
			}
		}
		for _, p := range sides {
			p.pool.SetQuery(func(tm postings.TermID) float64 { return w[tm] })
		}
	}
	release := func() {
		for _, p := range sides {
			for _, f := range p.held {
				p.pool.Unpin(f)
			}
			p.held = p.held[:0]
		}
	}

	for op := 0; op < 400; op++ {
		where := func() string { return fmt.Sprintf("seed %d op %d", seed, op) }
		switch k := r.Intn(100); {
		case k < 12:
			announce()
		case k < 14:
			// Flush while stale: an announcement, then every frame
			// leaves before any victim is chosen.
			announce()
			release()
			for _, p := range sides {
				p.pool.Flush()
			}
		case k < 15:
			// Generation bump: the superseded generation's frames leave
			// while the queue is stale, and the same policy instances
			// go on serving the next generation's pages.
			announce()
			release()
			for _, p := range sides {
				p.pool.Flush()
			}
			ix, st = parityIndex(t, r)
			build(0, lazyMk)
			build(1, refMk)
			announce()
		case k < 20:
			release()
		default:
			page := postings.PageID(r.Intn(ix.NumPagesTotal))
			poison := r.Intn(8) == 0 // this load fails
			hold := r.Intn(5) == 0 && len(sides[0].held) < capacity-1
			var errs [2]error
			for i, p := range sides {
				if poison {
					p.store.fail[page] = 1
				}
				f, _, err := p.pool.Fetch(page)
				errs[i] = err
				delete(p.store.fail, page)
				if err != nil {
					continue
				}
				if hold {
					p.held = append(p.held, f)
				} else {
					p.pool.Unpin(f)
				}
			}
			if (errs[0] == nil) != (errs[1] == nil) ||
				errors.Is(errs[0], ErrNoVictim) != errors.Is(errs[1], ErrNoVictim) {
				t.Fatalf("%s: fetch of page %d: lazy err %v, eager err %v", where(), page, errs[0], errs[1])
			}
		}
		lv, rv := sides[0].victims, sides[1].victims
		if !slices.Equal(lv, rv) {
			t.Fatalf("%s: victims diverged:\n lazy  %v\n eager %v", where(), lv, rv)
		}
		if ls, rs := sides[0].pool.Stats(), sides[1].pool.Stats(); ls != rs {
			t.Fatalf("%s: stats diverged: lazy %+v, eager %+v", where(), ls, rs)
		}
	}
	release()
	if len(sides[0].victims) == 0 {
		t.Fatalf("seed %d: no evictions — the sequence exercised nothing", seed)
	}
}
