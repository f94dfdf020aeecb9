package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"bufir"
	"bufir/internal/eval"
	"bufir/internal/indexfile"
	"bufir/internal/rank"
)

// setupReps is how many times each measuring process sets the
// deployment up; setup_s is the median of all forks' set-ups pooled
// (25, so 12 beyond it).
const setupReps = 5

// tunedDF is DF with the collection-tuned filtering constants the
// engines default to, spelled out so serial reference sessions use the
// same ones.
func tunedDF() bufir.EvalOptions {
	p := eval.TunedParams()
	return bufir.EvalOptions{CAdd: p.CAdd, CIns: p.CIns}
}

// engineConfig is the per-partition engine configuration of a workload.
func engineConfig(in *Inputs) bufir.EngineConfig {
	switch in.Workload {
	case refineDisk:
		return bufir.EngineConfig{
			EvalOptions: bufir.EvalOptions{Algorithm: bufir.BAF, TopN: topN},
			Workers:     1, BufferPages: refinePoolPages, Policy: bufir.RAP,
		}
	case adhocHot:
		return bufir.EngineConfig{EvalOptions: adhocParams(), Workers: adhocWorkers, BufferPages: in.Pages, Policy: bufir.RAP}
	default:
		return bufir.EngineConfig{
			EvalOptions: bufir.EvalOptions{Algorithm: bufir.Maxscore, TopN: topN},
			Workers:     1, BufferPages: livePoolPages, Policy: bufir.RAP,
		}
	}
}

// deployment is one set-up serving stack under test.
type deployment struct {
	searcher bufir.Searcher
	svc      *bufir.Service // the front door; nil for traced stacks
	genDir   string         // live-ingest generation directory
	close    func() error
}

// openService sets up the untraced deployment through the public front
// door: bufir.Open, live updates on live-ingest, and the warm-up pass
// on adhoc-hot. All of it counts toward setup_s.
func openService(ctx context.Context, in *Inputs, dir string, rep int) (*deployment, error) {
	svc, err := bufir.Open(indexPath(dir, in.Workload), bufir.WithEngine(engineConfig(in)))
	if err != nil {
		return nil, err
	}
	d := &deployment{searcher: svc, svc: svc, close: svc.Close}
	switch in.Workload {
	case adhocHot:
		if err := warm(ctx, svc, in); err != nil {
			_ = svc.Close()
			return nil, err
		}
	case liveIngest:
		d.genDir = filepath.Join(dir, fmt.Sprintf("gen%02d", rep))
		if err := os.MkdirAll(d.genDir, 0o755); err != nil {
			_ = svc.Close()
			return nil, err
		}
		if err := svc.EnableLiveUpdates(bufir.LiveOptions{Dir: d.genDir}); err != nil {
			_ = svc.Close()
			return nil, err
		}
		genDir := d.genDir
		d.close = func() error { return errors.Join(svc.Close(), os.RemoveAll(genDir)) }
	}
	return d, nil
}

// warm runs every distinct query once, so the pool holds every page
// the measured sequence touches.
func warm(ctx context.Context, s bufir.Searcher, in *Inputs) error {
	for i, q := range in.Queries {
		if _, err := s.SearchContext(ctx, 0, toQuery(q)); err != nil {
			return fmt.Errorf("warm-up query %d: %w", i, err)
		}
	}
	return nil
}

// opRec is what the client observed for one operation.
type opRec struct {
	lat    float64       // ms
	end    time.Duration // completion, from the start of the replay
	top    []rank.ScoredDoc
	counts [5]int // pages read, pages processed, entries, accumulators, selection inquiries
	epoch  uint64
	err    error
	// live-ingest only
	listPages int // pages of the query terms' lists at query time
	deltaDocs int // pending delta documents at query time
	genBytes  int64
}

func countsOf(res *bufir.Result) [5]int {
	return [5]int{res.PagesRead, res.PagesProcessed, res.EntriesProcessed, res.Accumulators, res.SelectionInquiries}
}

// queryHook observes the span of one query call, on the client
// goroutine, after the backends have recorded theirs.
type queryHook func(span time.Duration)

// replayQueries issues the synthetic workloads' op sequence closed-loop:
// each client goroutine sends its next query when the previous one
// returns. refine-disk has one client walking eight users round-robin;
// adhoc-hot has two.
func replayQueries(ctx context.Context, s bufir.Searcher, in *Inputs, hook queryHook) ([]opRec, time.Duration) {
	recs := make([]opRec, len(in.Ops))
	var byClient [][]int // op positions per client, in sequence order
	for i, op := range in.Ops {
		for len(byClient) <= op.Client {
			byClient = append(byClient, nil)
		}
		byClient[op.Client] = append(byClient[op.Client], i)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := range byClient {
		wg.Add(1)
		go func(idx []int) {
			defer wg.Done()
			for _, i := range idx {
				op := in.Ops[i]
				user := op.User
				if in.Workload == adhocHot {
					user = op.Client
				}
				q := toQuery(in.Queries[op.Query])
				t0 := time.Now()
				res, err := s.RefineContext(ctx, user, q)
				span := time.Since(t0)
				err = whole(res, err)
				recs[i] = opRec{lat: ms(span), end: time.Since(start), err: err}
				if err == nil {
					recs[i].top, recs[i].counts = res.Top, countsOf(res)
					if hook != nil {
						hook(span)
					}
				}
			}
		}(byClient[c])
	}
	wg.Wait()
	return recs, time.Since(start)
}

// whole turns a degraded or partial answer into an error: the
// benchmark runs no faults and no deadlines, so either means a defect.
func whole(res *bufir.Result, err error) error {
	if err == nil && (res.Degraded || res.Partial) {
		return fmt.Errorf("degraded=%v partial=%v answer", res.Degraded, res.Partial)
	}
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// liveHooks observe the live-ingest client's calls; nil on the
// untraced run.
type liveHooks struct {
	parse    func(d time.Duration)
	query    func(span time.Duration, res *bufir.Result)
	tokenize func(doc bufir.Document)
	ingest   func(span time.Duration)
	merge    func(span time.Duration)
}

// replayLive runs the live-ingest sequence from one client goroutine:
// text queries through Service.Query, ingests and merges.
func replayLive(ctx context.Context, d *deployment, in *Inputs, h *liveHooks) ([]opRec, time.Duration) {
	svc := d.svc
	ix := svc.Index()
	recs := make([]opRec, len(in.Ops))
	seen := map[string]bool{}
	start := time.Now()
	for i, op := range in.Ops {
		r := &recs[i]
		switch op.Kind {
		case "q":
			r.deltaDocs = ix.LiveStats().DeltaDocs
			t0 := time.Now()
			q, err := svc.Query(in.Texts[op.Query])
			t1 := time.Now()
			var res *bufir.Result
			if err == nil {
				res, err = svc.SearchContext(ctx, 0, q)
			}
			t2 := time.Now()
			r.lat, r.end, r.err = ms(t2.Sub(t0)), t2.Sub(start), whole(res, err)
			if r.err != nil {
				continue
			}
			r.top, r.counts, r.epoch = res.Top, countsOf(res), res.Epoch
			for _, qt := range q {
				r.listPages += ix.TermPages(qt.Term)
			}
			if h != nil {
				h.parse(t1.Sub(t0))
				h.query(t2.Sub(t1), res)
			}
		case "i":
			doc := in.Docs[op.Doc]
			if h != nil {
				h.tokenize(doc)
			}
			t0 := time.Now()
			_, err := svc.IngestContext(ctx, doc)
			span := time.Since(t0)
			r.lat, r.end, r.err, r.epoch = ms(span), time.Since(start), err, svc.Epoch()
			if h != nil && err == nil {
				h.ingest(span)
			}
		case "m":
			t0 := time.Now()
			err := svc.MergeContext(ctx)
			span := time.Since(t0)
			r.lat, r.end, r.err, r.epoch = ms(span), time.Since(start), err, svc.Epoch()
			if err == nil {
				r.genBytes, r.err = newGenerationBytes(d.genDir, seen)
			}
			if h != nil && err == nil {
				h.merge(span)
			}
		}
	}
	return recs, time.Since(start)
}

// newGenerationBytes sums the sizes of generation files that appeared
// in dir since the last call, marking them seen.
func newGenerationBytes(dir string, seen map[string]bool) (int64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "gen-*.bufir2"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, f := range files {
		if seen[f] {
			continue
		}
		seen[f] = true
		st, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return n, nil
}

// checker verifies one query answer; nil means correct.
type checker func(op int, r *opRec) error

// checkAnswers scores every query answer against the references built
// with the inputs. adhoc-hot's DF answers must equal the precomputed
// ones exactly. refine-disk's BAF answers depend on buffer state, so
// they must be a legal ranking — as long as the reference or the
// accumulator set allows, no duplicates, in rank order — whose scores
// never exceed the exhaustive ones: filtering only drops contributions.
func checkAnswers(in *Inputs) checker {
	return func(i int, r *opRec) error {
		qi := in.Ops[i].Query
		if in.Workload == adhocHot {
			return sameRanking(r.top, in.Expected[qi])
		}
		return legalRanking(r.top, in.Exhaustive[qi], r.counts[3])
	}
}

func sameRanking(got []rank.ScoredDoc, want []Ref) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for k := range got {
		if got[k].Doc != want[k].Doc || got[k].Score != want[k].Score {
			return fmt.Errorf("rank %d is doc %d (%g), want doc %d (%g)", k, got[k].Doc, got[k].Score, want[k].Doc, want[k].Score)
		}
	}
	return nil
}

func legalRanking(got []rank.ScoredDoc, ref []Ref, accumulators int) error {
	if want := min(len(ref), accumulators); len(got) != want {
		return fmt.Errorf("%d results, want %d", len(got), want)
	}
	refScore := make(map[bufir.DocID]float64, len(ref))
	for _, d := range ref {
		refScore[d.Doc] = d.Score
	}
	seen := make(map[bufir.DocID]bool, len(got))
	for k, d := range got {
		if seen[d.Doc] {
			return fmt.Errorf("doc %d ranked twice", d.Doc)
		}
		seen[d.Doc] = true
		if k > 0 && rank.Before(d, got[k-1]) {
			return fmt.Errorf("rank %d out of order", k)
		}
		if s, ok := refScore[d.Doc]; ok && d.Score > s*(1+1e-9) {
			return fmt.Errorf("doc %d scores %g, above its exhaustive %g", d.Doc, d.Score, s)
		}
	}
	return nil
}

func refDocs(ref []Ref) []rank.ScoredDoc {
	out := make([]rank.ScoredDoc, len(ref))
	for i, r := range ref {
		out[i] = rank.ScoredDoc{Doc: r.Doc, Score: r.Score}
	}
	return out
}

// outcome is a replay's verdict: attempted and failed operations, with
// the first few failures kept for the error report.
type outcome struct {
	attempted, failed int
	failures          []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// verify checks a replay's operations: errors, answers, and on
// live-ingest that epochs never decrease.
func verify(in *Inputs, recs []opRec, o *outcome) {
	check := checkAnswers(in)
	var last uint64
	for i := range recs {
		r := &recs[i]
		op := in.Ops[i]
		o.attempted++
		switch {
		case r.err != nil:
			o.fail("op %d (%s): %v", i, op.Kind, r.err)
		case in.Workload == liveIngest:
			if r.epoch < last {
				o.fail("op %d: epoch %d after %d", i, r.epoch, last)
			}
			last = r.epoch
		default:
			if err := check(i, r); err != nil {
				o.fail("op %d query %d: %v", i, op.Query, err)
			}
		}
	}
}

// finalEpochCheck compares, at the final epoch, every distinct live
// query's MAXSCORE answer with an exhaustive unfiltered-DF Session on
// the same index, and returns the mean overlap at 20.
func finalEpochCheck(ctx context.Context, svc *bufir.Service, in *Inputs, o *outcome) (float64, error) {
	ix := svc.Index()
	sess, err := ix.NewSession(bufir.SessionConfig{EvalOptions: exhaustive, BufferPages: ix.NumPages() + 1})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for i, text := range in.Texts {
		o.attempted++
		q, err := svc.Query(text)
		if err != nil {
			o.fail("final query %d: %v", i, err)
			continue
		}
		got, err := svc.SearchContext(ctx, 0, q)
		if err = whole(got, err); err != nil {
			o.fail("final query %d: %v", i, err)
			continue
		}
		want, err := sess.SearchContext(ctx, q)
		if err != nil {
			return 0, err
		}
		if err := sameRanking(got.Top, toRefs(want.Top)); err != nil {
			o.fail("final query %d: %v", i, err)
		}
		sum += rank.OverlapAtK(got.Top, want.Top, topN)
	}
	return sum / float64(len(in.Texts)), nil
}

// measured is the untraced run's account.
type measured struct {
	recs    []opRec
	wall    time.Duration
	runtime map[string]float64
	setups  []float64 // seconds per set-up
	peakRSS float64
	overlap float64
	bytesPP float64
	// evictions during the replay, derived from miss counts
	evictions int64
}

// measure sets the deployment up setupReps times (once when only the
// traced figures are wanted), replays the sequence once untraced, and
// verifies it.
func measure(ctx context.Context, in *Inputs, dir string, reps int, o *outcome) (*measured, error) {
	var setups []float64
	var d *deployment
	for rep := 0; rep < reps; rep++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		d, err = openService(ctx, in, dir, rep)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.close()
	m := &measured{setups: setups}
	runtime.GC()
	before := sampleRuntime()
	if in.Workload == liveIngest {
		m.recs, m.wall = replayLive(ctx, d, in, nil)
	} else {
		m.recs, m.wall = replayQueries(ctx, d.searcher, in, nil)
	}
	after := sampleRuntime()
	m.peakRSS = peakRSSMB()
	m.runtime = runtimeDelta(before, after, queries(in))
	verify(in, m.recs, o)
	var err error
	switch in.Workload {
	case liveIngest:
		if m.overlap, err = finalEpochCheck(ctx, d.svc, in, o); err != nil {
			return nil, err
		}
		m.bytesPP, err = finalGenerationBytesPerPosting(d.genDir)
		m.evictions = liveEvictions(m.recs)
	default:
		m.overlap = overlap(in, m.recs)
		m.bytesPP, err = bytesPerPosting(in, dir)
		for _, st := range d.svc.ShardStats() {
			m.evictions += max(0, st.PagesRead-int64(engineConfig(in).BufferPages))
		}
	}
	return m, err
}

func queries(in *Inputs) int {
	n := 0
	for _, op := range in.Ops {
		if op.Kind == "q" {
			n++
		}
	}
	return n
}

func overlap(in *Inputs, recs []opRec) float64 {
	sum := 0.0
	for i, r := range recs {
		sum += rank.OverlapAtK(r.top, refDocs(in.Exhaustive[in.Ops[i].Query]), topN)
	}
	return sum / float64(len(recs))
}

// bytesPerPosting is the served index files' size over their postings.
func bytesPerPosting(in *Inputs, dir string) (float64, error) {
	files := []string{indexPath(dir, in.Workload)}
	if in.Workload == refineDisk {
		var err error
		if files, err = indexfile.ShardFiles(files[0]); err != nil {
			return 0, err
		}
	}
	var size int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		size += st.Size()
	}
	return float64(size) / float64(in.Postings), nil
}

// finalGenerationBytesPerPosting sizes the last merged generation file
// against its own postings.
func finalGenerationBytesPerPosting(dir string) (float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "gen-*.bufir2"))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no generation file in %s: %v", dir, err)
	}
	sort.Strings(files)
	last := files[len(files)-1]
	st, err := os.Stat(last)
	if err != nil {
		return 0, err
	}
	pf, err := indexfile.OpenPageFile(last, indexfile.PageFileOptions{})
	if err != nil {
		return 0, err
	}
	defer pf.Close()
	var postings int64
	for _, t := range pf.Index.Terms {
		postings += int64(t.DF)
	}
	return float64(st.Size()) / float64(postings), nil
}

// liveEvictions derives evictions from the per-epoch miss counts: every
// published view starts a cold pool, and once its capacity is filled
// each miss evicts exactly one frame.
func liveEvictions(recs []opRec) int64 {
	misses := map[uint64]int64{}
	for _, r := range recs {
		if r.top != nil {
			misses[r.epoch] += int64(r.counts[0])
		}
	}
	var ev int64
	for _, m := range misses {
		ev += max(0, m-livePoolPages)
	}
	return ev
}
