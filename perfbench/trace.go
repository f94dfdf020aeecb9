package main

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"bufir"
	"bufir/internal/buffer"
	"bufir/internal/engine"
	"bufir/internal/eval"
	"bufir/internal/indexfile"
	"bufir/internal/postings"
	"bufir/internal/storage"
	"bufir/internal/textproc"
)

// The traced run replays the same op sequence with timing wrappers at
// seams the layers already expose: a storage.PageStore under each
// buffer pool, the buffer.Pool each evaluator reads through, engine
// jobs, the Searcher backends under bufir.NewRouter, and spans around
// the Service calls of live-ingest. Self time is a span minus the
// spans of its children.

// recorder accumulates spans from every wrapper of one traced replay.
type recorder struct {
	storageNs          atomic.Int64
	hitNs, hits        atomic.Int64
	missNs, misses     atomic.Int64
	announceNs         atomic.Int64
	evalNs, dispatchNs atomic.Int64
	shardNs            atomic.Int64
	estErr, estTerms   atomic.Int64

	mu         sync.Mutex
	storageLat []float64 // µs per page read
	queueWait  []float64 // µs per engine job
	shardSpans []time.Duration
}

// reset forgets everything recorded so far (the warm-up's spans).
func (r *recorder) reset() {
	for _, c := range []*atomic.Int64{&r.storageNs, &r.hitNs, &r.hits, &r.missNs, &r.misses,
		&r.announceNs, &r.evalNs, &r.dispatchNs, &r.shardNs, &r.estErr, &r.estTerms} {
		c.Store(0)
	}
	r.mu.Lock()
	r.storageLat, r.queueWait = nil, nil
	r.mu.Unlock()
}

func (r *recorder) read(d time.Duration) {
	r.storageNs.Add(int64(d))
	r.mu.Lock()
	r.storageLat = append(r.storageLat, us(d))
	r.mu.Unlock()
}

// shardCall records one backend call: its span, the evaluation time
// inside it, and BAF's estimated against actual reads per term.
func (r *recorder) shardCall(shard int, span, queueWait time.Duration, res *bufir.Result) {
	r.shardNs.Add(int64(span))
	r.evalNs.Add(int64(res.Elapsed))
	r.dispatchNs.Add(int64(span - res.Elapsed))
	for _, tt := range res.Trace {
		if tt.EstimatedReads >= 0 {
			r.estErr.Add(int64(math.Abs(float64(tt.EstimatedReads - tt.PagesRead))))
			r.estTerms.Add(1)
		}
	}
	r.mu.Lock()
	if queueWait >= 0 {
		r.queueWait = append(r.queueWait, us(queueWait))
	}
	if shard < len(r.shardSpans) {
		r.shardSpans[shard] = span
	}
	r.mu.Unlock()
}

// timedStore times every counted page read of the store it wraps.
type timedStore struct {
	storage.PageStore
	rec *recorder
}

func (s timedStore) Read(id postings.PageID) ([]postings.Entry, error) {
	t0 := time.Now()
	p, err := s.PageStore.Read(id)
	s.rec.read(time.Since(t0))
	return p, err
}

func (s timedStore) ReadContext(ctx context.Context, id postings.PageID) ([]postings.Entry, error) {
	t0 := time.Now()
	p, err := s.PageStore.ReadContext(ctx, id)
	s.rec.read(time.Since(t0))
	return p, err
}

// timedPool times every fetch an evaluator makes, split by hit and miss.
type timedPool struct {
	*buffer.UserView
	rec *recorder
}

func (p timedPool) note(d time.Duration, miss bool) {
	if miss {
		p.rec.missNs.Add(int64(d))
		p.rec.misses.Add(1)
	} else {
		p.rec.hitNs.Add(int64(d))
		p.rec.hits.Add(1)
	}
}

// SetQuery times the query announcement that precedes every
// evaluation: under RAP the pool re-keys its resident frames.
func (p timedPool) SetQuery(w buffer.QueryWeights) {
	t0 := time.Now()
	p.UserView.SetQuery(w)
	p.rec.announceNs.Add(int64(time.Since(t0)))
}

func (p timedPool) Fetch(id postings.PageID) (*buffer.Frame, bool, error) {
	t0 := time.Now()
	f, miss, err := p.UserView.Fetch(id)
	p.note(time.Since(t0), miss)
	return f, miss, err
}

func (p timedPool) FetchContext(ctx context.Context, id postings.PageID) (*buffer.Frame, bool, error) {
	t0 := time.Now()
	f, miss, err := p.UserView.FetchContext(ctx, id)
	p.note(time.Since(t0), miss)
	return f, miss, err
}

// partition is one index file opened below the public API, with a
// shared pool built exactly as bufir.Open builds it, over a timed store.
type partition struct {
	store *storage.FileStore
	ix    *postings.Index
	conv  *postings.ConversionTable
	pool  *buffer.SharedPool
}

func openPartition(path string, capacity int, policy bufir.Policy, rec *recorder) (*partition, error) {
	fs, err := storage.OpenFileStore(path, indexfile.PageFileOptions{})
	if err != nil {
		return nil, err
	}
	newPolicy, err := buffer.PolicyFactory(string(policy))
	if err != nil {
		_ = fs.Close()
		return nil, err
	}
	ix := fs.File().Index
	pool, err := buffer.NewSharedPool(capacity, timedStore{PageStore: fs, rec: rec}, ix, newPolicy(capacity))
	if err != nil {
		_ = fs.Close()
		return nil, err
	}
	return &partition{store: fs, ix: ix, conv: postings.NewConversionTable(ix, postings.DefaultMaxKey), pool: pool}, nil
}

// engineBackend is a Searcher over one internal engine.Engine that
// times each job and its queue wait.
type engineBackend struct {
	eng   *engine.Engine
	shard int
	rec   *recorder
}

func (b *engineBackend) SearchContext(ctx context.Context, user int, q bufir.Query) (*bufir.Result, error) {
	t0 := time.Now()
	j, err := b.eng.SubmitContext(ctx, user, q)
	if err != nil {
		return nil, err
	}
	res, err := j.Wait()
	if err == nil {
		b.rec.shardCall(b.shard, time.Since(t0), j.QueueWait(), res)
	}
	return res, err
}

func (b *engineBackend) RefineContext(ctx context.Context, user int, q bufir.Query) (*bufir.Result, error) {
	return b.SearchContext(ctx, user, q)
}
func (b *engineBackend) Stats() bufir.EngineStats { return b.eng.Counters() }
func (b *engineBackend) Close() error             { b.eng.Close(); return nil }

// evalBackend is a Searcher that evaluates directly, one evaluator per
// user over a timed view of the partition's shared pool — what an
// engine worker does for a job, minus the queue.
type evalBackend struct {
	p      *partition
	algo   eval.Algorithm
	params eval.Params
	shard  int
	rec    *recorder

	mu    sync.Mutex
	users map[int]*eval.Evaluator
	views []*buffer.UserView
}

func (b *evalBackend) evaluator(user int) (*eval.Evaluator, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ev, ok := b.users[user]; ok {
		return ev, nil
	}
	view := b.p.pool.UserView(user)
	ev, err := eval.NewEvaluator(b.p.ix, timedPool{UserView: view, rec: b.rec}, b.p.conv, b.params)
	if err != nil {
		return nil, err
	}
	b.users[user] = ev
	b.views = append(b.views, view)
	return ev, nil
}

func (b *evalBackend) SearchContext(ctx context.Context, user int, q bufir.Query) (*bufir.Result, error) {
	t0 := time.Now()
	ev, err := b.evaluator(user)
	if err != nil {
		return nil, err
	}
	res, err := ev.EvaluateContext(ctx, b.algo, q)
	if err == nil {
		b.rec.shardCall(b.shard, time.Since(t0), -1, res)
	}
	return res, err
}

func (b *evalBackend) RefineContext(ctx context.Context, user int, q bufir.Query) (*bufir.Result, error) {
	return b.SearchContext(ctx, user, q)
}
func (b *evalBackend) Stats() bufir.EngineStats { return bufir.EngineStats{} }
func (b *evalBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, v := range b.views {
		v.Close()
	}
	b.views = nil
	return nil
}

// tracedStack assembles a traced deployment of a synthetic workload:
// one partition per index file, each behind an engine (viaEngine) or a
// direct evaluator, fronted by bufir.NewRouter when there are several.
func tracedStack(ctx context.Context, in *Inputs, dir string, viaEngine bool, rec *recorder) (*deployment, error) {
	cfg := engineConfig(in)
	params, err := engineParams(cfg.EvalOptions)
	if err != nil {
		return nil, err
	}
	files := []string{indexPath(dir, in.Workload)}
	if in.Workload == refineDisk {
		if files, err = indexfile.ShardFiles(files[0]); err != nil {
			return nil, err
		}
	}
	rec.shardSpans = make([]time.Duration, len(files))
	var parts []*partition
	var backends []bufir.Searcher
	closeAll := func() error {
		var errs []error
		for _, b := range backends {
			errs = append(errs, b.Close())
		}
		for _, p := range parts {
			errs = append(errs, p.store.Close())
		}
		return errors.Join(errs...)
	}
	for i, f := range files {
		p, err := openPartition(f, cfg.BufferPages, cfg.Policy, rec)
		if err != nil {
			_ = closeAll()
			return nil, err
		}
		parts = append(parts, p)
		if viaEngine {
			eng, err := engine.New(p.ix, p.conv, p.pool, engine.Config{Workers: cfg.Workers, Algo: cfg.Algorithm, Params: params})
			if err != nil {
				_ = closeAll()
				return nil, err
			}
			backends = append(backends, &engineBackend{eng: eng, shard: i, rec: rec})
		} else {
			backends = append(backends, &evalBackend{p: p, algo: cfg.Algorithm, params: params, shard: i, rec: rec, users: map[int]*eval.Evaluator{}})
		}
	}
	d := &deployment{searcher: backends[0], close: closeAll}
	if len(backends) > 1 {
		r, err := bufir.NewRouter(backends, bufir.RouterConfig{TopN: topN})
		if err != nil {
			_ = closeAll()
			return nil, err
		}
		d.searcher = r
	}
	if in.Workload == adhocHot {
		if err := warm(ctx, d.searcher, in); err != nil {
			_ = closeAll()
			return nil, err
		}
	}
	return d, nil
}

// engineParams resolves evaluation options the way bufir's engines do:
// TopN 20 by default and the collection-tuned constants when filtering
// with both constants zero.
func engineParams(o bufir.EvalOptions) (eval.Params, error) {
	p := eval.Params{CAdd: o.CAdd, CIns: o.CIns, TopN: o.TopN}
	if p.TopN == 0 {
		p.TopN = topN
	}
	if !o.Unfiltered && p.CAdd == 0 && p.CIns == 0 {
		t := eval.TunedParams()
		p.CAdd, p.CIns = t.CAdd, t.CIns
	}
	return p, p.Validate()
}

// layerMetrics is the per-layer account of a traced run.
type layerMetrics map[string]float64

// sameCounts reports the ops whose paper counts differ between two
// replays of one sequence.
func sameCounts(name string, a, b []opRec, o *outcome) bool {
	ok := true
	for i := range a {
		if a[i].counts != b[i].counts {
			o.fail("%s replay op %d counts %v, untraced %v", name, i, b[i].counts, a[i].counts)
			ok = false
		}
	}
	return ok
}

// traceSynthetic runs the two traced replays of refine-disk or
// adhoc-hot: through engines (engine, router and storage spans) and
// through direct evaluators (eval and buffer spans).
func traceSynthetic(ctx context.Context, in *Inputs, dir string, m *measured, o *outcome) (layerMetrics, error) {
	lm := layerMetrics{}
	n := float64(len(in.Ops))

	// Engine seam.
	rec := &recorder{}
	d, err := tracedStack(ctx, in, dir, true, rec)
	if err != nil {
		return nil, err
	}
	rec.reset()
	var clientNs, routerNs int64
	var skew float64
	shards := len(rec.shardSpans)
	hook := func(span time.Duration) {
		clientNs += int64(span)
		if shards < 2 {
			return
		}
		rec.mu.Lock()
		slowest, sum := time.Duration(0), time.Duration(0)
		for _, s := range rec.shardSpans {
			slowest = max(slowest, s)
			sum += s
		}
		rec.mu.Unlock()
		routerNs += int64(span - slowest)
		skew += float64(slowest) / (float64(sum) / float64(shards))
	}
	if in.Workload == adhocHot {
		hook = nil // two clients: spans come from the backends alone
	}
	recsA, wallA := replayQueries(ctx, d.searcher, in, hook)
	if err := d.close(); err != nil {
		return nil, err
	}
	if hook == nil {
		clientNs = rec.shardNs.Load()
	}
	matchA := sameCounts("engine-traced", m.recs, recsA, o)
	if qw, err := percentile(rec.queueWait, 0.5); err == nil {
		lm["engine.queue_wait_us_p50"] = qw
	} else {
		return nil, err
	}
	lm["engine.dispatch_us_per_query"] = float64(rec.dispatchNs.Load()) / 1e3 / n
	if shards > 1 {
		lm["router.merge_us_per_query"] = float64(routerNs) / 1e3 / n
		lm["router.shard_skew"] = skew / n
	}
	if len(rec.storageLat) > 0 {
		p50, err := percentile(rec.storageLat, 0.5)
		if err != nil {
			return nil, err
		}
		lm["storage.read_us_p50"] = p50
		lm["storage.read_share"] = float64(rec.storageNs.Load()) / float64(rec.shardNs.Load())
	}
	// Self times along the engine seam: router (client − slowest shard),
	// engine (job − evaluation), evaluation incl. buffer (evaluation −
	// storage), storage. With two shards running side by side their
	// sum exceeds the client's wall time by the overlap.
	selfSum := float64(routerNs) + float64(rec.dispatchNs.Load()) + float64(rec.evalNs.Load())
	lm["trace.self_sum_frac"] = selfSum / float64(clientNs)
	lm["trace.overhead_frac"] = 1 - m.wall.Seconds()/wallA.Seconds()

	// Evaluator seam.
	rec = &recorder{}
	d, err = tracedStack(ctx, in, dir, false, rec)
	if err != nil {
		return nil, err
	}
	rec.reset()
	recsB, _ := replayQueries(ctx, d.searcher, in, nil)
	if err := d.close(); err != nil {
		return nil, err
	}
	matchB := sameCounts("eval-traced", m.recs, recsB, o)
	entries := 0
	for _, r := range m.recs {
		entries += r.counts[2]
	}
	fetchNs := rec.hitNs.Load() + rec.missNs.Load()
	evalSelf := float64(rec.evalNs.Load() - fetchNs)
	lm["eval.self_us_per_query"] = evalSelf / 1e3 / n
	lm["eval.ns_per_entry"] = evalSelf / float64(entries)
	if h := rec.hits.Load(); h > 0 {
		lm["buffer.fetch_hit_ns"] = float64(rec.hitNs.Load()) / float64(h)
	}
	if ms := rec.misses.Load(); ms > 0 {
		lm["buffer.miss_self_us"] = float64(rec.missNs.Load()-rec.storageNs.Load()) / 1e3 / float64(ms)
	}
	lm["buffer.announce_us_per_query"] = float64(rec.announceNs.Load()) / 1e3 / n
	if t := rec.estTerms.Load(); t > 0 {
		lm["eval.baf_estimate_error"] = float64(rec.estErr.Load()) / float64(t)
	}
	lm["trace.counts_match"] = boolMetric(matchA && matchB)
	return lm, nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// traceLive replays live-ingest through the Service with spans around
// Service.Query, the search, IngestContext and MergeContext; document
// tokenization is timed by running the same text pipeline on the
// document just before it is ingested.
func traceLive(ctx context.Context, in *Inputs, dir string, m *measured, o *outcome) (layerMetrics, error) {
	d, err := openService(ctx, in, dir, setupReps)
	if err != nil {
		return nil, err
	}
	defer d.close()
	pipe := textproc.NewPipeline(nil)
	var parse, tokenize, evalNs, dispatchNs time.Duration
	var nq, ni int
	var commits []float64
	var lastTok time.Duration
	var spans time.Duration
	h := &liveHooks{
		parse: func(d time.Duration) { parse += d; spans += d },
		query: func(span time.Duration, res *bufir.Result) {
			nq++
			evalNs += res.Elapsed
			dispatchNs += span - res.Elapsed
			spans += span
		},
		tokenize: func(doc bufir.Document) {
			t0 := time.Now()
			pipe.CountTerms(doc.Text)
			lastTok = time.Since(t0)
			tokenize += lastTok
			ni++
		},
		ingest: func(span time.Duration) {
			commits = append(commits, ms(span-lastTok))
			spans += span
		},
		merge: func(span time.Duration) { spans += span },
	}
	recs, wall := replayLive(ctx, d, in, h)
	match := sameCounts("traced", m.recs, recs, o)
	commitP50, err := percentile(commits, 0.5)
	if err != nil {
		return nil, err
	}
	lm := layerMetrics{
		"textproc.query_parse_us":      us(parse) / float64(nq),
		"textproc.doc_tokenize_us":     us(tokenize) / float64(ni),
		"livedex.commit_ms_p50":        commitP50,
		"evalsafe.self_us_per_query":   us(evalNs) / float64(nq),
		"engine.dispatch_us_per_query": us(dispatchNs) / float64(nq),
		"trace.self_sum_frac":          float64(spans+tokenize) / float64(wall),
		"trace.overhead_frac":          1 - m.wall.Seconds()/wall.Seconds(),
		"trace.counts_match":           boolMetric(match),
	}
	return lm, nil
}

// countMetrics are the per-layer figures read off the untraced run's
// results: the paper's counters, the buffer's hit ratio and evictions,
// live-ingest's writer latencies, and the runtime's allocation and CPU.
func countMetrics(in *Inputs, m *measured) (layerMetrics, error) {
	lm := layerMetrics{}
	for k, v := range m.runtime {
		lm[k] = v
	}
	var c [5]float64
	var listPages, deltaDocs float64
	var ingest, merge []float64
	var genBytes int64
	nq := 0
	for i, r := range m.recs {
		switch in.Ops[i].Kind {
		case "q":
			nq++
			for k := range c {
				c[k] += float64(r.counts[k])
			}
			listPages += float64(r.listPages)
			deltaDocs += float64(r.deltaDocs)
		case "i":
			ingest = append(ingest, r.lat)
		case "m":
			merge = append(merge, r.lat)
			genBytes += r.genBytes
		}
	}
	q := float64(nq)
	lm["pages_read_per_query"] = c[0] / q
	lm["eval.entries_per_query"] = c[2] / q
	lm["eval.accumulators_per_query"] = c[3] / q
	lm["eval.selection_inquiries_per_query"] = c[4] / q
	if c[1] > 0 {
		lm["buffer.hit_ratio"] = 1 - c[0]/c[1]
	}
	lm["buffer.evictions_per_query"] = float64(m.evictions) / q
	if in.Workload == liveIngest {
		lm["evalsafe.pages_skipped_frac"] = 1 - c[1]/listPages
		lm["livedex.delta_docs_mean"] = deltaDocs / q
		lm["livedex.merge_bytes_written"] = float64(genBytes) / float64(len(merge))
		var err error
		if lm["ingest_p50_ms"], err = percentile(ingest, 0.5); err != nil {
			return nil, err
		}
		if lm["ingest_p95_ms"], err = percentile(ingest, 0.95); err != nil {
			return nil, err
		}
		if lm["merge_p50_ms"], err = percentile(merge, 0.5); err != nil {
			return nil, err
		}
	}
	return lm, nil
}
