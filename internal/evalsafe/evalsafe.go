// Package evalsafe implements the rank-safe top-k evaluator family:
// query evaluation over the frequency-sorted paged inverted lists of
// internal/postings that is guaranteed to return the bit-identical
// top-k — same documents, same float64 scores, same tie order — as an
// exhaustive (unfiltered) DF evaluation, while terminating as soon as
// the provisional answer is provably final.
//
// The paper's DF and BAF trade exactness for fewer page reads; this
// package closes the gap ROADMAP item 2 names, following Fagin's
// TA/NRA early-termination theory and Turtle & Flood's maxscore,
// adapted to this physical layout. Two properties of the layout carry
// the whole design:
//
//  1. Lists are frequency-sorted and paged, and every page's maximum
//     frequency (TermMeta.PageMaxFreq) is memory-resident. After
//     reading pages [0,next) of a list, every still-unread entry has
//     f_dt <= PageMaxFreq[next], so the list's boundary contribution
//     cur_t = DocWeight(PageMaxFreq[next], idf)·w_qt upper-bounds what
//     it can still add to ANY document — known without I/O.
//  2. There is no per-document random access (the layout has no
//     docid-ordered structure), so all three methods use Fagin's
//     sorted-access (NRA-style) bookkeeping: per-candidate partial
//     sums plus upper bounds. The methods differ only in their access
//     SCHEDULE — which list's next page to read — never in their
//     termination proof or their answer.
//
// # Termination invariant
//
// Let K be the k best COMPLETE candidates (a candidate is complete
// when, for every query list, it has either been seen in the list or
// the list is finished — absence cannot be proven from bounds, only
// from exhaustion). Evaluation may stop when
//
//   - |K| = k, and
//   - every other candidate's upper bound strictly loses to K's k-th
//     member under the rank.Before total order (score descending,
//     DocID ascending among ties), and
//   - the best score any UNSEEN document could reach — the sum R of
//     all live boundary contributions over the smallest vector length
//     among non-candidate documents — is strictly below the k-th score
//     (strictly: an unseen document's DocID could win a tie).
//
// Upper bounds are inflated by one part in 10^12 before comparison:
// the bound sum is accumulated in a different order than the true
// score, and IEEE-754 addition is not associative, so an uninflated
// bound could round one ULP below a true score it must dominate. The
// margin exceeds the worst-case relative rounding error of any
// realistic query length by more than a factor of 1000 and costs at
// most a handful of extra page reads near the threshold.
//
// When no early stop is proven the loop simply exhausts every list,
// which degenerates to exactly the exhaustive evaluation — a safe
// method never reads more list pages than unfiltered DF.
//
// # Bit-identical scores
//
// Exhaustive DF builds each accumulator by adding per-term
// contributions in canonical order (idf descending, TermID ascending)
// starting from 0. The schedules here interleave lists, so each
// candidate records its per-term contributions separately and replays
// them in that canonical order after every update; the final ranking
// is produced by the same rank.TopN over those canonical sums. Same
// additions in the same order, same normalization, same tie-break —
// therefore the same bits. (Like postings.Build, this assumes at most
// one entry per document within a list.)
//
// # Buffer awareness
//
// The way BAF made DF buffer-aware, the schedules consult the buffer
// pool's per-term residency (Pool.ResidentPages, the paper's b_t)
// before choosing the next access:
//
//   - TA: lockstep rounds — every live list advances one page per
//     round, the classic TA cadence — but within a round, lists whose
//     unread pages look buffer-resident go first.
//   - NRA: fully adaptive — each step reads the list preferring
//     residency, then the largest boundary contribution (shrinking
//     bounds fastest), then canonical order.
//   - Maxscore: term-at-a-time — a chosen list is scanned to
//     exhaustion (checking termination at page boundaries); the next
//     list is chosen by fewest estimated reads first (BAF's rule),
//     with the larger static maximum contribution σ_t breaking ties,
//     so low-σ lists tend never to be opened at all.
//
// Every residency probe is counted as a selection inquiry, like BAF's.
package evalsafe

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"bufir/internal/buffer"
	"bufir/internal/postings"
	"bufir/internal/rank"
)

// Schedule selects the access order of a rank-safe evaluation. All
// schedules return identical results; they differ only in which pages
// they read before the termination proof fires.
type Schedule int

const (
	// TA is residency-ordered lockstep: one page per live list per
	// round.
	TA Schedule = iota
	// NRA is fully adaptive: resident next, then largest boundary
	// contribution.
	NRA
	// Maxscore is term-at-a-time in BAF-style fewest-reads order with
	// σ_t tie-break; unopened low-σ lists are the savings.
	Maxscore
)

// String returns the schedule's conventional name.
func (s Schedule) String() string {
	switch s {
	case TA:
		return "TA"
	case NRA:
		return "NRA"
	case Maxscore:
		return "MAXSCORE"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// QueryTerm is one query term with its query frequency f_qt
// (mirroring eval.QueryTerm without importing it — eval depends on
// this package, not the other way around).
type QueryTerm struct {
	Term postings.TermID
	Fqt  int
}

// Options are the evaluation knobs. Rank-safe methods have no
// filtering constants — exactness is the contract.
type Options struct {
	// TopN is k, the answer size (must be >= 1).
	TopN int
	// FaultBudget is the per-query error budget, with the same
	// semantics as eval.Params.FaultBudget: a list whose page fetch
	// fails (non-context error) is abandoned — its pages already read
	// keep their contributions, the remainder counts as finished — and
	// the query completes Degraded. Exactness is guaranteed only for
	// fault-free evaluations; a degraded answer is a legal anytime
	// ranking, exactly like DF's.
	FaultBudget int
}

// TermStats is the per-list execution detail, in canonical
// (idf-descending) order.
type TermStats struct {
	Term             postings.TermID
	Fqt              int
	ListPages        int
	PagesProcessed   int
	PagesRead        int
	PagesHit         int
	EntriesProcessed int
	// Exhausted is true when every page of the list was read.
	Exhausted bool
	// Faulted is true when the list was abandoned under FaultBudget.
	Faulted bool
	// Truncated is true when the context died while fetching this
	// list's next page.
	Truncated bool
}

// Outcome is the result of one rank-safe evaluation.
type Outcome struct {
	// Top is the answer: bit-identical to exhaustive DF's top-k for a
	// fault-free, uncanceled run.
	Top []rank.ScoredDoc
	// Candidates counts every document seen in any list; Complete
	// counts those provably carrying their full score.
	Candidates int
	Complete   int
	// Smax is the largest canonical accumulator value observed. After
	// an exhausted run it equals DF's S_max exactly; after an early
	// termination it is a lower bound (the untouched list tails could
	// have grown a non-winner).
	Smax float64
	// Cost counters, with eval.Result's meanings.
	PagesProcessed     int
	PagesRead          int
	EntriesProcessed   int
	SelectionInquiries int
	// Terminated is true when the bound proof stopped the evaluation
	// before exhausting every list — the pages the proof saved are the
	// unread tails at that moment.
	Terminated bool
	// Partial is true when the context died mid-evaluation: Top is a
	// best-effort ranking of everything seen (the anytime answer), not
	// a proven one.
	Partial bool
	// Faults counts lists abandoned under FaultBudget; Degraded is
	// Faults > 0.
	Faults   int
	Degraded bool
	// PerTerm holds per-list detail in canonical order.
	PerTerm []TermStats
}

// ubInflate is the safety margin applied to every upper bound before
// it is compared against an exact score; see the package comment.
const ubInflate = 1 + 1e-12

// checkBackoffCap bounds the exponential backoff between full
// termination checks: after a failed proof the next attempts are
// skipped for 1, 3, 7, ... page reads, capped here. The proof stays
// sound at any cadence (it only decides when to stop reading, never
// what to answer); the cap trades at most a few late page reads for
// not re-scanning the candidate table on every page of a long query.
const checkBackoffCap = 8

// listState tracks one query list. Lists are held in canonical order
// (idf descending, TermID ascending — DF's processing order), and a
// candidate's contribution index is its list's canonical position.
type listState struct {
	qt  QueryTerm
	tm  *postings.TermMeta
	idf float64
	wqt float64
	// sigma is the static maximum contribution
	// DocWeight(FMax)·w_qt — maxscore's list ordering key.
	sigma float64
	// next is the next unread page; done marks a finished list
	// (exhausted or faulted).
	next int
	done bool
	st   TermStats
}

// curBound returns the list's boundary contribution: an upper bound
// on what any still-unread entry can add to a document's accumulator.
// Zero once the list is finished.
func (li *listState) curBound() float64 {
	if li.done {
		return 0
	}
	return rank.DocWeight(li.tm.PageMaxFreq[li.next], li.idf) * li.wqt
}

// candidate is a document seen in at least one list.
type candidate struct {
	// contrib[i] is the document's contribution from canonical list i,
	// valid iff seen[i].
	contrib []float64
	seen    []bool
	// canon is the canonical-order sum of the seen contributions — the
	// exact float64 an exhaustive DF accumulator holds after the same
	// terms. score caches canon normalized by W_d (0 when W_d <= 0).
	canon float64
	score float64
	// unseenLive counts the live lists this document has not been seen
	// in; 0 means complete.
	unseenLive int
	// mark stamps membership in the provisional top-k of the
	// termination check generation that last ran.
	mark int
}

// run is the per-evaluation state; everything is call-confined, so
// concurrent evaluations on one (index, pool) pair are safe whenever
// the pool is.
type run struct {
	ix    *postings.Index
	buf   buffer.Pool
	sched Schedule
	opts  Options

	lists []listState
	live  int
	cands map[postings.DocID]*candidate
	// complete counts candidates with unseenLive == 0.
	complete int
	smax     float64
	faults   int
	out      *Outcome

	// docsByLen cursor: the first index whose document is not yet a
	// candidate (documents only ever become candidates, so it only
	// moves forward).
	dblCursor int

	// Termination-check pacing (see checkBackoffCap) and the top-k
	// marking generation.
	checkSkip int
	checkGen  int

	// Schedule state: TA's current round queue, maxscore's sticky list.
	roundQueue []int
	sticky     int
}

// Evaluate runs one rank-safe evaluation of q under the schedule. The
// query must be non-empty with valid term ids, positive query
// frequencies and no duplicate terms (eval.checkQuery's contract; a
// defensive subset is re-checked here). The context is honored at
// every page boundary; on a context error the partial Outcome is
// returned alongside it, like eval.EvaluateContext's anytime
// contract. Any other fetch error beyond FaultBudget returns a nil
// Outcome.
func Evaluate(ctx context.Context, ix *postings.Index, buf buffer.Pool, q []QueryTerm, sched Schedule, opts Options) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(q) == 0 {
		return nil, errors.New("evalsafe: empty query")
	}
	if opts.TopN < 1 {
		return nil, fmt.Errorf("evalsafe: TopN %d < 1", opts.TopN)
	}
	if opts.FaultBudget < 0 {
		return nil, fmt.Errorf("evalsafe: FaultBudget %d < 0", opts.FaultBudget)
	}
	r := &run{
		ix:     ix,
		buf:    buf,
		sched:  sched,
		opts:   opts,
		cands:  make(map[postings.DocID]*candidate, 64),
		out:    &Outcome{},
		sticky: -1,
	}
	if err := r.initLists(q); err != nil {
		return nil, err
	}

	for r.live > 0 {
		if err := ctx.Err(); err != nil {
			return r.partial(err)
		}
		if r.proven() {
			r.out.Terminated = true
			break
		}
		li := r.pickNext()
		if err := r.readPage(ctx, li); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return r.partial(err)
			}
			return nil, err
		}
	}
	return r.finalize(), nil
}

// initLists builds the canonical list states. Zero-page lists (a
// shard term whose postings live in other partitions, or a df-carrying
// term with no local pages) start finished: nothing local to read,
// nothing to contribute, and absence from them is proven vacuously.
func (r *run) initLists(q []QueryTerm) error {
	ordered := make([]QueryTerm, len(q))
	copy(ordered, q)
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		ia, ib := r.ix.IDF(a.Term), r.ix.IDF(b.Term)
		if ia != ib {
			return ia > ib
		}
		return a.Term < b.Term
	})
	r.lists = make([]listState, len(ordered))
	for i, qt := range ordered {
		if int(qt.Term) < 0 || int(qt.Term) >= len(r.ix.Terms) {
			return fmt.Errorf("evalsafe: term id %d out of range", qt.Term)
		}
		if qt.Fqt < 1 {
			return fmt.Errorf("evalsafe: term %d has query frequency %d < 1", qt.Term, qt.Fqt)
		}
		tm := &r.ix.Terms[qt.Term]
		idf := tm.IDF
		wqt := rank.QueryWeight(qt.Fqt, idf)
		r.lists[i] = listState{
			qt:    qt,
			tm:    tm,
			idf:   idf,
			wqt:   wqt,
			sigma: rank.DocWeight(tm.FMax, idf) * wqt,
			st: TermStats{
				Term:      qt.Term,
				Fqt:       qt.Fqt,
				ListPages: tm.NumPages,
			},
		}
		if tm.NumPages == 0 {
			r.lists[i].done = true
			r.lists[i].st.Exhausted = true
		} else {
			r.live++
		}
	}
	return nil
}

// unreadResident estimates how many of the list's unread pages are
// buffer-resident: the pool reports residency per term, not per page,
// so the pages this evaluation already processed are subtracted as
// the best available correction (the same b_t approximation BAF's
// d_t = p_t − b_t makes). Counted as a selection inquiry.
func (r *run) unreadResident(li *listState) int {
	r.out.SelectionInquiries++
	n := r.buf.ResidentPages(li.qt.Term) - li.next
	if n < 0 {
		return 0
	}
	return n
}

// pickNext chooses the next list to advance by one page. At least one
// list is live when called.
func (r *run) pickNext() *listState {
	switch r.sched {
	case NRA:
		return r.pickNRA()
	case Maxscore:
		return r.pickMaxscore()
	default:
		return r.pickTA()
	}
}

// pickTA pops the lockstep round queue, rebuilding it — live lists
// ordered by unread residency, then canonical position — whenever a
// round completes.
func (r *run) pickTA() *listState {
	for {
		for len(r.roundQueue) > 0 {
			i := r.roundQueue[0]
			r.roundQueue = r.roundQueue[1:]
			if !r.lists[i].done {
				return &r.lists[i]
			}
		}
		type entry struct{ idx, resident int }
		round := make([]entry, 0, len(r.lists))
		for i := range r.lists {
			if !r.lists[i].done {
				round = append(round, entry{i, r.unreadResident(&r.lists[i])})
			}
		}
		sort.SliceStable(round, func(a, b int) bool {
			return round[a].resident > round[b].resident
		})
		for _, e := range round {
			r.roundQueue = append(r.roundQueue, e.idx)
		}
	}
}

// pickNRA chooses adaptively: a buffer-resident next page first, then
// the largest boundary contribution (the access that shrinks upper
// bounds fastest), then canonical order.
func (r *run) pickNRA() *listState {
	best := -1
	bestResident := false
	bestBound := 0.0
	for i := range r.lists {
		li := &r.lists[i]
		if li.done {
			continue
		}
		resident := r.unreadResident(li) > 0
		bound := li.curBound()
		if best == -1 ||
			(resident && !bestResident) ||
			(resident == bestResident && bound > bestBound) {
			best, bestResident, bestBound = i, resident, bound
		}
	}
	return &r.lists[best]
}

// pickMaxscore keeps scanning the current list until it finishes,
// then selects the next by fewest estimated disk reads (BAF's rule),
// ties broken by larger σ_t, then canonical order. The termination
// check between pages is what lets trailing low-σ lists go unopened.
func (r *run) pickMaxscore() *listState {
	if r.sticky >= 0 && !r.lists[r.sticky].done {
		return &r.lists[r.sticky]
	}
	best := -1
	bestReads := 0
	for i := range r.lists {
		li := &r.lists[i]
		if li.done {
			continue
		}
		reads := li.tm.NumPages - li.next - r.unreadResident(li)
		if reads < 0 {
			reads = 0
		}
		if best == -1 || reads < bestReads ||
			(reads == bestReads && li.sigma > r.lists[best].sigma) {
			best, bestReads = i, reads
		}
	}
	r.sticky = best
	return &r.lists[best]
}

// readPage fetches and absorbs the list's next page. Context errors
// propagate (the caller finalizes the partial answer); fetch faults
// are charged to the budget, finishing the list Degraded-style, and
// fail the query once the budget is spent.
func (r *run) readPage(ctx context.Context, li *listState) error {
	frame, missed, err := r.buf.FetchContext(ctx, r.ix.PageOf(li.qt.Term, li.next))
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			li.st.Truncated = true
			return err
		}
		if r.faults < r.opts.FaultBudget {
			// Same stance as eval's FaultBudget: the pages already read
			// keep their contributions, the rest of the list is
			// abandoned, and the answer degrades instead of erroring.
			// The termination proof treats the lost tail as finished —
			// exactness holds only fault-free, which is also DF's
			// contract.
			r.faults++
			li.st.Faulted = true
			r.finishList(li)
			return nil
		}
		return fmt.Errorf("evalsafe: term %q page %d: %w", li.tm.Name, li.next, err)
	}
	li.st.PagesProcessed++
	if missed {
		li.st.PagesRead++
	} else {
		li.st.PagesHit++
	}
	pos := r.posOf(li)
	for _, entry := range frame.Data() {
		li.st.EntriesProcessed++
		r.absorb(pos, li, entry)
	}
	r.buf.Unpin(frame)
	li.next++
	if li.next == li.tm.NumPages {
		li.st.Exhausted = true
		r.finishList(li)
	}
	return nil
}

// posOf returns the list's canonical position.
func (r *run) posOf(li *listState) int {
	// Lists are stored in canonical order; index arithmetic avoids a
	// lookup table.
	for i := range r.lists {
		if &r.lists[i] == li {
			return i
		}
	}
	panic("evalsafe: list not found")
}

// absorb records one posting for the candidate, refreshing its
// canonical sum and cached score.
func (r *run) absorb(pos int, li *listState, entry postings.Entry) {
	c := r.cands[entry.Doc]
	if c == nil {
		c = &candidate{
			contrib:    make([]float64, len(r.lists)),
			seen:       make([]bool, len(r.lists)),
			unseenLive: r.live,
		}
		r.cands[entry.Doc] = c
	}
	contrib := rank.DocWeight(entry.Freq, li.idf) * li.wqt
	if c.seen[pos] {
		// A malformed list carrying two entries for one document:
		// accumulate like DF's sequential scan would (postings.Build
		// never produces this; bit-identity is claimed only for
		// well-formed lists).
		c.contrib[pos] += contrib
	} else {
		c.contrib[pos] = contrib
		c.seen[pos] = true
		c.unseenLive--
		if c.unseenLive == 0 {
			r.complete++
		}
	}
	// Replay the canonical order: identical additions to exhaustive
	// DF's accumulator trajectory for this document.
	s := 0.0
	for i, ok := range c.seen {
		if ok {
			s += c.contrib[i]
		}
	}
	c.canon = s
	if s > r.smax {
		r.smax = s
	}
	c.score = 0
	if w := r.ix.DocLen[entry.Doc]; w > 0 {
		c.score = s / w
	}
}

// finishList marks a list done and settles completeness: every
// candidate not seen in it now has its absence proven (exhausted) or
// conceded (faulted).
func (r *run) finishList(li *listState) {
	if li.done {
		return
	}
	li.done = true
	r.live--
	pos := r.posOf(li)
	for _, c := range r.cands {
		if !c.seen[pos] {
			c.unseenLive--
			if c.unseenLive == 0 {
				r.complete++
			}
		}
	}
	if r.sticky >= 0 && r.lists[r.sticky].done {
		r.sticky = -1
	}
}

// proven runs the termination check: true when the provisional top-k
// is provably final. Soundness does not depend on when it runs, so
// failed proofs back off exponentially (see checkBackoffCap).
func (r *run) proven() bool {
	k := r.opts.TopN
	if r.complete < k {
		// Fewer complete candidates than answers owed: no proof is
		// possible yet (and if the whole collection holds fewer than k
		// scoring documents, the loop runs to exhaustion, which IS the
		// exhaustive answer).
		return false
	}
	if r.checkSkip > 0 {
		r.checkSkip--
		return false
	}
	ok := r.provenFull()
	if !ok {
		r.checkSkip = 2*r.checkSkip + 1
		if r.checkSkip > checkBackoffCap {
			r.checkSkip = checkBackoffCap
		}
	}
	return ok
}

// provenFull is the full proof: select the provisional top-k among
// complete candidates, then verify that no incomplete candidate and
// no unseen document can displace its weakest member.
func (r *run) provenFull() bool {
	k := r.opts.TopN
	r.checkGen++

	// Provisional top-k among complete candidates, under exactly
	// rank.TopN's order (W_d <= 0 documents excluded as there).
	top := make([]rank.ScoredDoc, 0, k)
	for doc, c := range r.cands {
		if c.unseenLive != 0 || r.ix.DocLen[doc] <= 0 {
			continue
		}
		sd := rank.ScoredDoc{Doc: doc, Score: c.score}
		if len(top) < k {
			top = append(top, sd)
			if len(top) == k {
				sort.Slice(top, func(i, j int) bool { return rank.Before(top[i], top[j]) })
			}
			continue
		}
		if rank.Before(sd, top[k-1]) {
			// Insert in order; k is small (the answer size), so a
			// linear shift beats heap bookkeeping.
			i := sort.Search(k-1, func(i int) bool { return rank.Before(sd, top[i]) })
			copy(top[i+1:], top[i:k-1])
			top[i] = sd
		}
	}
	if len(top) < k {
		return false
	}
	if len(top) > 1 && !sort.SliceIsSorted(top, func(i, j int) bool { return rank.Before(top[i], top[j]) }) {
		sort.Slice(top, func(i, j int) bool { return rank.Before(top[i], top[j]) })
	}
	kth := top[k-1]
	for _, sd := range top {
		r.cands[sd.Doc].mark = r.checkGen
	}

	// The unseen-document bound: R over the smallest vector length of
	// any document not yet seen. Strict comparison — an unseen
	// document's DocID could win a tie against the k-th member.
	R := 0.0
	for i := range r.lists {
		R += r.lists[i].curBound()
	}
	byLen := r.ix.DocsByLen()
	for r.dblCursor < len(byLen) && r.cands[byLen[r.dblCursor]] != nil {
		r.dblCursor++
	}
	if r.dblCursor < len(byLen) {
		wmin := r.ix.DocLen[byLen[r.dblCursor]]
		if !(R*ubInflate/wmin < kth.Score) {
			return false
		}
	}

	// Every incomplete candidate must provably lose to the k-th
	// member. (Complete non-members lose by construction: the
	// selection above used the same total order the final TopN will.)
	for doc, c := range r.cands {
		if c.unseenLive == 0 || c.mark == r.checkGen {
			continue
		}
		w := r.ix.DocLen[doc]
		if w <= 0 {
			continue
		}
		ub := c.canon
		for i := range r.lists {
			if !c.seen[i] {
				ub += r.lists[i].curBound()
			}
		}
		if !rank.Before(kth, rank.ScoredDoc{Doc: doc, Score: ub * ubInflate / w}) {
			return false
		}
	}
	return true
}

// finalize produces the exact answer: canonical sums of the complete
// candidates through the same rank.TopN as DF. After exhaustion every
// candidate is complete and this IS the exhaustive evaluation; after
// an early termination the excluded incomplete candidates are exactly
// those the proof showed cannot reach the top-k.
func (r *run) finalize() *Outcome {
	r.out.Top = r.topK(true)
	r.fillStats()
	return r.out
}

// partial finalizes the anytime answer on a context error: a ranking
// of every candidate's known partial score (DF's partial semantics),
// returned alongside the error.
func (r *run) partial(err error) (*Outcome, error) {
	r.out.Top = r.topK(false)
	r.out.Partial = true
	r.fillStats()
	return r.out, err
}

// topK runs rank.TopN over the candidates' canonical sums — only the
// complete candidates' when completeOnly is set.
func (r *run) topK(completeOnly bool) []rank.ScoredDoc {
	acc := rank.GetAccumulators(len(r.ix.DocLen))
	defer rank.PutAccumulators(acc)
	for doc, c := range r.cands {
		if !completeOnly || c.unseenLive == 0 {
			acc.Set(doc, c.canon)
		}
	}
	return acc.TopN(r.ix.DocLen, r.opts.TopN)
}

// fillStats copies the run's counters into the Outcome.
func (r *run) fillStats() {
	r.out.Candidates = len(r.cands)
	r.out.Complete = r.complete
	r.out.Smax = r.smax
	r.out.Faults = r.faults
	r.out.Degraded = r.faults > 0
	r.out.PerTerm = make([]TermStats, len(r.lists))
	for i := range r.lists {
		st := r.lists[i].st
		r.out.PerTerm[i] = st
		r.out.PagesProcessed += st.PagesProcessed
		r.out.PagesRead += st.PagesRead
		r.out.EntriesProcessed += st.EntriesProcessed
	}
}
