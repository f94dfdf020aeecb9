package bufir

// Regression tests for the evaluators' dense accumulator scratch: the
// number of accumulator sets is bounded by concurrent evaluations (not
// by users or evaluators), and a set sized for one generation keeps
// working when a live commit grows the collection past it.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"bufir/internal/rank"
)

// TestEngineAccumulatorSetsBoundedByWorkers: an Engine keeps per-user
// state for every user it serves, but the accumulator sets its
// evaluations borrow come from one shared free list, so serving 1,000
// distinct users from many goroutines adds at most one set per worker.
func TestEngineAccumulatorSetsBoundedByWorkers(t *testing.T) {
	const workers, users = 4, 1000
	col, ix := testIndex(t)
	queries := make([]Query, len(col.Topics))
	for i, tp := range col.Topics {
		q, err := ix.TopicQuery(tp)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
	}
	eng, err := ix.NewEngine(EngineConfig{
		EvalOptions: EvalOptions{Algorithm: DF},
		Workers:     workers,
		BufferPages: 64,
		Policy:      RAP,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	before := rank.AccumulatorSets()
	var wg sync.WaitGroup
	errs := make(chan error, users)
	for g := 0; g < 2*workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for u := g; u < users; u += 2 * workers {
				if _, err := eng.Search(u, queries[u%len(queries)]); err != nil {
					errs <- fmt.Errorf("user %d: %w", u, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if grown := rank.AccumulatorSets() - before; grown > workers {
		t.Fatalf("serving %d users on %d workers created %d accumulator sets, want <= %d",
			users, workers, grown, workers)
	}
}

// TestLiveGrowthRanksNewDocuments: after queries have sized the shared
// accumulator sets for the first generation, live commits push NumDocs
// well past it; DF and BAF on the new epoch must rank the new documents
// (DocIDs at or above the old NumDocs) into the top-k, bit-identical to
// a from-scratch rebuild of the grown corpus.
func TestLiveGrowthRanksNewDocuments(t *testing.T) {
	for _, algo := range []Algorithm{DF, BAF} {
		t.Run(algo.String(), func(t *testing.T) {
			live, c := seedCorpus(t, rand.New(rand.NewSource(5)))
			cfg := exactConfig{opts: EvalOptions{Algorithm: algo, TopN: 5}, policy: RAP}
			query := map[string]int{exactTerm(0): 1, exactTerm(1): 1}
			checkSearch(t, live, c, cfg, query, "first generation")

			oldDocs, oldEpoch := live.NumDocs(), live.Epoch()
			for i := 0; i < oldDocs; i++ { // double the collection
				counts := map[string]int{exactTerm(1): 1 + i%3}
				if i%4 == 0 { // a rare, heavy new term: it leads the query
					counts["zzgrowth"] = 20 + i
				}
				name := fmt.Sprintf("grown%02d", i)
				if _, err := live.AddTerms(name, counts); err != nil {
					t.Fatal(err)
				}
				c.add(name, counts)
			}
			if live.Epoch() == oldEpoch || live.NumDocs() != 2*oldDocs {
				t.Fatalf("epoch %d -> %d, NumDocs %d -> %d: the commits did not publish",
					oldEpoch, live.Epoch(), oldDocs, live.NumDocs())
			}

			query = map[string]int{exactTerm(1): 1, "zzgrowth": 2}
			checkSearch(t, live, c, cfg, query, "grown generation")
			got := runCold(t, live, cfg, mkQuery(t, live, query), FaultToleranceOptions{})
			newInTop := 0
			for _, sd := range got.Top {
				if int(sd.Doc) >= oldDocs {
					newInTop++
				}
			}
			if newInTop == 0 {
				t.Fatalf("no document with DocID >= %d in the grown generation's top-%d: %v",
					oldDocs, len(got.Top), got.Top)
			}
		})
	}
}
