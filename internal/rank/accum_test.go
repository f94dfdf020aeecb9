package rank

import (
	"math/rand"
	"testing"

	"bufir/internal/postings"
)

// TestAccumulatorsMatchMap: random Add/Set/Get sequences, with resets
// and growth between rounds, agree with a map-held model on every
// lookup, on |A|, and on the ranking.
func TestAccumulatorsMatchMap(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var a Accumulators
	for round := 0; round < 60; round++ {
		numDocs := 1 + r.Intn(40*(1+round/10)) // grows across rounds
		a.Reset(numDocs)
		model := map[postings.DocID]float64{}
		docLen := make([]float64, numDocs)
		for i := range docLen {
			docLen[i] = float64(r.Intn(3)) // zero lengths included
		}
		for op := 0; op < 200; op++ {
			d := postings.DocID(r.Intn(numDocs))
			x := float64(r.Intn(5)) - 1
			switch r.Intn(3) {
			case 0:
				if got, want := a.Add(d, x), model[d]+x; got != want {
					t.Fatalf("round %d: Add(%d) = %g, want %g", round, d, got, want)
				}
				model[d] += x
			case 1:
				a.Set(d, x)
				model[d] = x
			default:
				got, ok := a.Get(d)
				want, wok := model[d]
				if got != want || ok != wok {
					t.Fatalf("round %d: Get(%d) = %g,%v, want %g,%v", round, d, got, ok, want, wok)
				}
			}
		}
		if a.Len() != len(model) {
			t.Fatalf("round %d: Len = %d, want %d", round, a.Len(), len(model))
		}
		got, want := a.TopN(docLen, 7), topNOf(model, docLen, 7)
		if len(got) != len(want) {
			t.Fatalf("round %d: TopN len %d, want %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d pos %d: %v, want %v", round, i, got[i], want[i])
			}
		}
	}
}

// TestAccumulatorsGenerationWrap: when the generation counter wraps,
// stamps left by old generations must not read as members.
func TestAccumulatorsGenerationWrap(t *testing.T) {
	var a Accumulators
	a.Reset(4)
	a.Set(2, 5)
	a.gen = ^uint32(0) // next Reset wraps to 0
	a.stamp[1] = 1     // a stale stamp that would alias generation 1
	a.Reset(4)
	for d := postings.DocID(0); d < 4; d++ {
		if _, ok := a.Get(d); ok {
			t.Fatalf("doc %d is a member after a wrapping Reset", d)
		}
	}
	if a.Len() != 0 {
		t.Fatalf("Len = %d after Reset", a.Len())
	}
}

// TestAccumulatorsFreeListReuse: a released set is handed out again,
// empty, and grown to a larger collection when asked for one.
func TestAccumulatorsFreeListReuse(t *testing.T) {
	a := GetAccumulators(8)
	a.Set(7, 1)
	PutAccumulators(a)
	made := AccumulatorSets()
	b := GetAccumulators(100)
	defer PutAccumulators(b)
	if AccumulatorSets() != made {
		t.Fatalf("Get after Put made a new set (%d -> %d)", made, AccumulatorSets())
	}
	if b.Len() != 0 {
		t.Fatalf("reused set holds %d documents", b.Len())
	}
	b.Set(99, 2) // beyond the first collection: the set grew
	if v, ok := b.Get(99); !ok || v != 2 {
		t.Fatalf("Get(99) = %g,%v after growth", v, ok)
	}
}
