package eval

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"bufir/internal/buffer"
	"bufir/internal/postings"
	"bufir/internal/rank"
	"bufir/internal/storage"
)

// BenchmarkProcessTermWarm prices DF's term processing (Figure 1 step
// 4: fetch each page, fold its entries into the accumulators) on a
// warm pool holding the whole index, so no page is read from storage.
// One op is one unfiltered three-term query's rounds in DF order over
// a fresh accumulator set; ns/entry divides by the entries processed.
func BenchmarkProcessTermWarm(b *testing.B) {
	const numDocs, pageSize = 50000, 128
	r := rand.New(rand.NewSource(1))
	lens := []int{20000, 8000, 3000}
	lists := make([]postings.TermPostings, len(lens))
	for i, n := range lens {
		docs := r.Perm(numDocs)[:n]
		entries := make([]postings.Entry, n)
		for j, d := range docs {
			entries[j] = postings.Entry{Doc: postings.DocID(d), Freq: int32(1 + r.Intn(12))}
		}
		lists[i] = postings.TermPostings{Name: fmt.Sprintf("t%d", i), Entries: entries}
	}
	ix, pages, err := postings.Build(lists, numDocs, pageSize)
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := buffer.NewManager(ix.NumPagesTotal, storage.NewStore(pages), ix, buffer.NewRAP())
	if err != nil {
		b.Fatal(err)
	}
	ev, err := NewEvaluator(ix, mgr, postings.NewConversionTable(ix, postings.DefaultMaxKey),
		Params{TopN: 20})
	if err != nil {
		b.Fatal(err)
	}
	q := Query{{Term: 0, Fqt: 1}, {Term: 1, Fqt: 2}, {Term: 2, Fqt: 1}}
	if _, err := ev.Evaluate(DF, q); err != nil { // warm the pool
		b.Fatal(err)
	}
	ord := ev.dfOrder(q)
	ctx := context.Background()
	entries := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := &evalState{acc: rank.GetAccumulators(len(ix.DocLen)), res: &Result{}}
		for _, qt := range ord {
			if err := ev.processTerm(ctx, qt, -1, st); err != nil {
				b.Fatal(err)
			}
		}
		entries += st.res.EntriesProcessed
		rank.PutAccumulators(st.acc)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(entries), "ns/entry")
}
