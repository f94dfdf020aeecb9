package buffer

import (
	"fmt"
	"testing"

	"bufir/internal/postings"
	"bufir/internal/storage"
)

// rapBenchPool returns a RAP-managed pool holding `resident` frames
// (pages 0..resident-1, all unpinned) over an index with `extra` more
// pages, plus two alternating query-weight functions.
func rapBenchPool(b *testing.B, resident, extra int) (*Manager, [2]QueryWeights) {
	b.Helper()
	const terms, pageSize = 64, 4
	total := resident + extra
	lists := make([]postings.TermPostings, terms)
	for i := range lists {
		n := (total/terms + 1) * pageSize
		entries := make([]postings.Entry, n)
		for j := range entries {
			entries[j] = postings.Entry{Doc: postings.DocID(j), Freq: int32(1 + (n-j)%50)}
		}
		lists[i] = postings.TermPostings{Name: fmt.Sprintf("t%d", i), Entries: entries}
	}
	ix, pages, err := postings.Build(lists, (total/terms+1)*pageSize, pageSize)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewManager(resident, storage.NewStore(pages), ix, NewRAP())
	if err != nil {
		b.Fatal(err)
	}
	for p := 0; p < resident; p++ {
		f, err := m.Get(postings.PageID(p))
		if err != nil {
			b.Fatal(err)
		}
		m.Unpin(f)
	}
	wa := map[postings.TermID]float64{0: 2, 5: 1, 9: 3}
	wb := map[postings.TermID]float64{1: 1, 5: 2, 40: 4}
	return m, [2]QueryWeights{
		func(t postings.TermID) float64 { return wa[t] },
		func(t postings.TermID) float64 { return wb[t] },
	}
}

// BenchmarkRAPAnnounce prices one query announcement (SetQuery) on a
// warm RAP pool of 64, 4,096 and 47,191 resident frames — the last the
// size of a pool holding a whole default-scale index. A query that
// evicts nothing pays exactly this under the pool latch.
func BenchmarkRAPAnnounce(b *testing.B) {
	for _, n := range []int{64, 4096, 47191} {
		b.Run(fmt.Sprintf("frames=%d", n), func(b *testing.B) {
			m, w := rapBenchPool(b, n, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.SetQuery(w[i&1])
			}
		})
	}
}

// BenchmarkRAPAnnounceEvict prices an announcement followed by one
// miss that must evict: the re-key a query pays when it does evict,
// whenever the policy chooses to run it.
func BenchmarkRAPAnnounceEvict(b *testing.B) {
	for _, n := range []int{64, 4096, 47191} {
		b.Run(fmt.Sprintf("frames=%d", n), func(b *testing.B) {
			const extra = 64
			m, w := rapBenchPool(b, n, extra)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.SetQuery(w[i&1])
				// Cycle through pages beyond the resident set so every
				// fetch misses (an evicted page may come back later).
				f, err := m.Get(postings.PageID(n + i%extra))
				if err != nil {
					b.Fatal(err)
				}
				m.Unpin(f)
			}
		})
	}
}
