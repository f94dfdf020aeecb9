package rank

import (
	"sync"

	"bufir/internal/postings"
)

// Accumulators is a dense accumulator set A over the DocIDs
// [0, numDocs): a score array indexed by DocID, a generation-stamped
// membership array, and the list of member documents in first-touch
// order. DocIDs are dense, so a lookup is two array reads instead of a
// hash probe, and Reset empties the set in O(1) by bumping the
// generation instead of clearing the arrays.
//
// A set is confined to one evaluation. Sets are recycled through a
// single process-wide free list (GetAccumulators/PutAccumulators), so
// the number of sets alive is bounded by the peak number of concurrent
// evaluations — not by users, sessions or evaluators.
type Accumulators struct {
	score []float64
	stamp []uint32 // stamp[d] == gen ⇔ d ∈ A
	gen   uint32
	docs  []postings.DocID
}

// Reset empties the set and sizes it for DocIDs below numDocs, growing
// the arrays when a larger index generation needs them.
func (a *Accumulators) Reset(numDocs int) {
	if numDocs > len(a.score) {
		// A live index grows a few documents per epoch: leave headroom
		// so each set is not reallocated on every publication.
		size := numDocs + numDocs/4
		a.score = make([]float64, size)
		a.stamp = make([]uint32, size)
		a.gen = 0
	}
	a.gen++
	if a.gen == 0 { // wrapped: every stale stamp could alias the new generation
		clear(a.stamp)
		a.gen = 1
	}
	a.docs = a.docs[:0]
}

// Get returns d's accumulator and whether d is in the set.
func (a *Accumulators) Get(d postings.DocID) (float64, bool) {
	if a.stamp[d] != a.gen {
		return 0, false
	}
	return a.score[d], true
}

// Set assigns d's accumulator, adding d to the set if absent.
func (a *Accumulators) Set(d postings.DocID, v float64) {
	if a.stamp[d] != a.gen {
		a.stamp[d] = a.gen
		a.docs = append(a.docs, d)
	}
	a.score[d] = v
}

// Add adds x to d's accumulator — inserting d with 0 + x when absent,
// the same floating-point result a map's zero value gives — and
// returns the new value.
func (a *Accumulators) Add(d postings.DocID, x float64) float64 {
	old := 0.0
	if a.stamp[d] == a.gen {
		old = a.score[d]
	} else {
		a.stamp[d] = a.gen
		a.docs = append(a.docs, d)
	}
	v := old + x
	a.score[d] = v
	return v
}

// Len returns |A|, the number of documents in the set.
func (a *Accumulators) Len() int { return len(a.docs) }

// TopN ranks the set's documents (see the package-level TopN).
func (a *Accumulators) TopN(docLen []float64, n int) []ScoredDoc {
	return TopN(a.docs, a.score, docLen, n)
}

// accFree is the process-wide free list of accumulator sets. It never
// drops a set, so made counts every set alive: each is either in use
// by an evaluation or waiting here.
var accFree struct {
	mu   sync.Mutex
	sets []*Accumulators
	made int
}

// GetAccumulators returns an empty accumulator set sized for DocIDs
// below numDocs, reusing a released set when one is free. Return it
// with PutAccumulators when the evaluation is done with it.
func GetAccumulators(numDocs int) *Accumulators {
	accFree.mu.Lock()
	var a *Accumulators
	if n := len(accFree.sets); n > 0 {
		a = accFree.sets[n-1]
		accFree.sets[n-1] = nil
		accFree.sets = accFree.sets[:n-1]
	} else {
		a = &Accumulators{}
		accFree.made++
	}
	accFree.mu.Unlock()
	a.Reset(numDocs)
	return a
}

// PutAccumulators releases a set obtained from GetAccumulators. The
// caller must not touch it afterwards.
func PutAccumulators(a *Accumulators) {
	accFree.mu.Lock()
	accFree.sets = append(accFree.sets, a)
	accFree.mu.Unlock()
}

// AccumulatorSets reports how many accumulator sets the process holds,
// in use or free: the peak number of evaluations that have needed one
// at the same time.
func AccumulatorSets() int {
	accFree.mu.Lock()
	defer accFree.mu.Unlock()
	return accFree.made
}
