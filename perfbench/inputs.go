package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"bufir"
	"bufir/internal/corpus"
)

// Workload names, as passed to --workload.
const (
	refineDisk = "refine-disk"
	adhocHot   = "adhoc-hot"
	liveIngest = "live-ingest"
)

// Workload sizes. The op counts per run are fixed by the seed and the
// --seconds argument alone (see opsFor); nothing is paced by a clock.
const (
	topN = 20

	refineUsers      = 8  // simulated users interleaved round-robin
	refineShards     = 2  // BUFIR2 shard files behind the router
	refinePoolPages  = 64 // buffer pages per shard engine
	adhocClients     = 2  // closed-loop client goroutines
	adhocWorkers     = 2  // engine workers
	liveQueriesPerIn = 8  // queries between two ingests
	liveMerges       = 20 // merges per run, evenly spaced; the run ends on one
	livePoolPages    = 256
	liveHeldOut      = 400 // documents of the tiny collection kept for ingestion

	// Nominal operation rates used to size a run from --seconds. They
	// only choose how much fixed work a run does; a faster build does
	// the same work in less time.
	refineQueriesPerSec = 1300
	adhocQueriesPerSec  = 700
	liveQueriesPerSec   = 450

	// corpusSeed generates every workload's collection: the corpus is
	// the benchmark's fixed dataset, and --seed varies the operation
	// stream over it (which users walk which topics, in what order,
	// which queries and documents the live client sends). Work per run
	// then differs between seeds only by how the stream interacts with
	// the buffers, not by a different collection.
	corpusSeed = 1998

	// Percentile sample floors: 1000 queries put 10 beyond p99, 200
	// ingests put 10 beyond p95.
	minQueries = 1000
	minIngests = 200
)

// Ref is one ranked document of a reference answer.
type Ref struct {
	Doc   bufir.DocID `json:"d"`
	Score float64     `json:"s"`
}

// Term is one query term with its query frequency.
type Term struct {
	ID  bufir.TermID `json:"t"`
	Fqt int          `json:"f"`
}

// Op is one closed-loop operation of a workload's sequence.
type Op struct {
	Kind   string `json:"k"`           // "q" query, "i" ingest, "m" merge
	User   int    `json:"u,omitempty"` // issuing user (refine-disk)
	Client int    `json:"c,omitempty"` // issuing client goroutine (adhoc-hot)
	Query  int    `json:"q,omitempty"` // index into Inputs.Queries
	Doc    int    `json:"d,omitempty"` // index into Inputs.Docs
}

// Inputs is everything a run needs that is derived from the seed and
// built before the measured phase: the op sequence, the distinct
// queries it references, their reference answers and the documents
// to ingest. The index files sit next to it in the work directory.
type Inputs struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Queries are the distinct queries: term lists for the synthetic
	// workloads, text for live-ingest.
	Queries [][]Term `json:"queries,omitempty"`
	Texts   []string `json:"texts,omitempty"`
	Ops     []Op     `json:"ops"`
	// Exhaustive holds the unfiltered-DF top-n of each query (overlap
	// reference); Expected the exact DF answer on adhoc-hot.
	Exhaustive [][]Ref          `json:"exhaustive,omitempty"`
	Expected   [][]Ref          `json:"expected,omitempty"`
	Docs       []bufir.Document `json:"docs,omitempty"`
	Postings   int64            `json:"postings"`
	Pages      int              `json:"pages"`
}

// indexPath is where prepare writes the served index: a shard
// directory for refine-disk, one BUFIR2 file otherwise.
func indexPath(dir, workload string) string {
	if workload == refineDisk {
		return filepath.Join(dir, "shards")
	}
	return filepath.Join(dir, "index.bufir2")
}

func inputsPath(dir string) string { return filepath.Join(dir, "inputs.json") }

// defaultScale is each workload's collection scale.
func defaultScale(workload string) string {
	if workload == liveIngest {
		return "tiny"
	}
	return "default"
}

func collectionConfig(scale string) (bufir.CollectionConfig, error) {
	switch scale {
	case "tiny":
		return bufir.TinyCollectionConfig(corpusSeed), nil
	case "default":
		return bufir.DefaultCollectionConfig(corpusSeed), nil
	}
	return bufir.CollectionConfig{}, fmt.Errorf("unknown scale %q", scale)
}

// forks is how many fresh serving processes replay the sequence in one
// measuring run (run.py starts them one after another and reports the
// median of their figures). Throughput of the same binary on the same
// inputs differs between processes by up to a quarter on the two-core
// development host, while replays inside one process agree within a
// few percent; the median of five processes rides that out.
const forks = 5

// opsFor sizes the sequence one process replays: the number of queries
// for its share of --seconds, never below the percentile floor.
func opsFor(workload string, seconds int) int {
	rate := map[string]int{refineDisk: refineQueriesPerSec, adhocHot: adhocQueriesPerSec, liveIngest: liveQueriesPerSec}[workload]
	n := rate * seconds / forks
	if n < minQueries {
		n = minQueries
	}
	return n
}

// prepare builds a workload's inputs and index files under dir. A
// non-empty scale overrides the workload's collection scale (the
// self-tests run everything at tiny scale).
func prepare(workload string, seed int64, seconds int, scale, dir string) (*Inputs, error) {
	if scale == "" {
		scale = defaultScale(workload)
	}
	cfg, err := collectionConfig(scale)
	if err != nil {
		return nil, err
	}
	col, err := bufir.GenerateCollection(cfg)
	if err != nil {
		return nil, fmt.Errorf("generating collection: %w", err)
	}
	in := &Inputs{Workload: workload, Seed: seed}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	switch workload {
	case refineDisk:
		err = prepareRefine(in, col, rng, opsFor(workload, seconds), dir)
	case adhocHot:
		err = prepareAdhoc(in, col, rng, opsFor(workload, seconds), dir)
	case liveIngest:
		err = prepareLive(in, col, rng, opsFor(workload, seconds), dir)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

// totalPostings counts the (document, frequency) entries of a collection.
func totalPostings(col *bufir.Collection) int64 {
	var n int64
	for _, l := range col.Lists {
		n += int64(len(l.Entries))
	}
	return n
}

func toTerms(q bufir.Query) []Term {
	out := make([]Term, len(q))
	for i, qt := range q {
		out[i] = Term{ID: qt.Term, Fqt: qt.Fqt}
	}
	return out
}

func toQuery(ts []Term) bufir.Query {
	q := make(bufir.Query, len(ts))
	for i, t := range ts {
		q[i] = bufir.QueryTerm{Term: t.ID, Fqt: t.Fqt}
	}
	return q
}

func toRefs(top []bufir.ScoredDoc) []Ref {
	out := make([]Ref, len(top))
	for i, d := range top {
		out[i] = Ref{Doc: d.Doc, Score: d.Score}
	}
	return out
}

// answers evaluates every query with a fresh session per goroutine
// (two, one per core) and returns their top-n in query order.
func answers(ix *bufir.Index, queries [][]Term, opts bufir.EvalOptions) ([][]Ref, error) {
	const par = 2
	out := make([][]Ref, len(queries))
	errs := make([]error, par)
	var wg sync.WaitGroup
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := ix.NewSession(bufir.SessionConfig{EvalOptions: opts, BufferPages: ix.NumPages() + 1})
			if err != nil {
				errs[g] = err
				return
			}
			for i := g; i < len(queries); i += par {
				res, err := s.Search(toQuery(queries[i]))
				if err != nil {
					errs[g] = fmt.Errorf("reference for query %d: %w", i, err)
					return
				}
				out[i] = toRefs(res.Top)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// exhaustive is the unfiltered-DF reference configuration.
var exhaustive = bufir.EvalOptions{Unfiltered: true, TopN: topN}

// prepareRefine: 2 BUFIR2 shard files at default scale; every topic's
// ADD-ONLY refinement sequence, dealt to 8 users and interleaved
// round-robin; passes repeat the interleave until the run's op count.
func prepareRefine(in *Inputs, col *bufir.Collection, rng *rand.Rand, want int, dir string) error {
	ix, err := bufir.NewIndex(col)
	if err != nil {
		return err
	}
	if err := ix.WriteShardFiles(indexPath(dir, refineDisk), refineShards, 0); err != nil {
		return err
	}
	users := make([][]int, refineUsers) // query indexes per user, in order
	for k, ti := range rng.Perm(len(col.Topics)) {
		tp := col.Topics[ti]
		q, err := ix.TopicQuery(tp)
		if err != nil {
			return err
		}
		ranked, err := ix.RankTermsByContribution(q)
		if err != nil {
			return err
		}
		seq, err := bufir.BuildRefinementSequence(tp.ID, bufir.AddOnly, ranked)
		if err != nil {
			return err
		}
		u := k % refineUsers
		for _, r := range seq.Refinements {
			users[u] = append(users[u], len(in.Queries))
			in.Queries = append(in.Queries, toTerms(r))
		}
	}
	var pass []Op
	for step := 0; ; step++ {
		added := false
		for u, qs := range users {
			if step < len(qs) {
				pass = append(pass, Op{Kind: "q", User: u, Query: qs[step]})
				added = true
			}
		}
		if !added {
			break
		}
	}
	for len(in.Ops) < want {
		in.Ops = append(in.Ops, pass...)
	}
	in.Exhaustive, err = answers(ix, in.Queries, exhaustive)
	if err != nil {
		return err
	}
	in.Postings = totalPostings(col)
	in.Pages = ix.NumPages()
	return nil
}

// adhocParams is the engine's DF configuration; the references use the
// same constants so the expected answers are exact.
func adhocParams() bufir.EvalOptions {
	p := tunedDF()
	p.TopN = topN
	return p
}

// prepareAdhoc: one BUFIR2 file at default scale; the 100 full topic
// queries in a seeded order per pass, dealt to 2 clients alternately.
func prepareAdhoc(in *Inputs, col *bufir.Collection, rng *rand.Rand, want int, dir string) error {
	ix, err := bufir.NewIndex(col)
	if err != nil {
		return err
	}
	if err := ix.WriteFile(indexPath(dir, adhocHot), 0); err != nil {
		return err
	}
	for _, tp := range col.Topics {
		q, err := ix.TopicQuery(tp)
		if err != nil {
			return err
		}
		in.Queries = append(in.Queries, toTerms(q))
	}
	for len(in.Ops) < want {
		for _, qi := range rng.Perm(len(in.Queries)) {
			in.Ops = append(in.Ops, Op{Kind: "q", Client: len(in.Ops) % adhocClients, Query: qi})
		}
	}
	if in.Exhaustive, err = answers(ix, in.Queries, exhaustive); err != nil {
		return err
	}
	if in.Expected, err = answers(ix, in.Queries, adhocParams()); err != nil {
		return err
	}
	in.Postings = totalPostings(col)
	in.Pages = ix.NumPages()
	return nil
}

// prepareLive: the tiny collection emitted as text, all but the
// held-out documents indexed (stop-words kept) and written as BUFIR2;
// text queries are fixed subsets of topic terms, sent in a seeded
// order; the sequence interleaves an ingest every few queries and
// twenty evenly spaced merges, the last one ending the run.
func prepareLive(in *Inputs, col *bufir.Collection, rng *rand.Rand, want int, dir string) error {
	docs := corpus.EmitDocuments(col, corpusSeed)
	if len(docs) <= liveHeldOut {
		return fmt.Errorf("collection of %d documents is too small", len(docs))
	}
	base := make([]bufir.Document, len(docs)-liveHeldOut)
	for d := range base {
		base[d] = bufir.Document{Name: fmt.Sprintf("d%d", d), Text: docs[d]}
	}
	ix, err := bufir.IndexDocuments(base, bufir.IndexOptions{PageSize: col.Cfg.PageSize, NumStopWords: -1})
	if err != nil {
		return err
	}
	if err := ix.WriteFile(indexPath(dir, liveIngest), 0); err != nil {
		return err
	}
	// The query texts are part of the fixed dataset; the seed picks
	// which one the client sends when.
	const queriesPerTopic = 16
	texts := rand.New(rand.NewSource(corpusSeed))
	termIndex := make(map[string]int, len(col.Lists))
	for i, l := range col.Lists {
		termIndex[l.Name] = i
	}
	for _, tp := range col.Topics {
		for k := 0; k < queriesPerTopic; k++ {
			n := 3 + texts.Intn(10)
			var words []string
			for _, j := range texts.Perm(len(tp.Terms))[:min(n, len(tp.Terms))] {
				words = append(words, corpus.AlphaName(termIndex[tp.Terms[j].Term]))
			}
			in.Texts = append(in.Texts, strings.Join(words, " "))
		}
	}
	ingests := want / liveQueriesPerIn
	if ingests < minIngests {
		ingests = minIngests
	}
	// Whole merge groups, so the run ends on a merge; twenty merges put
	// 10 samples beyond merge_p50.
	perMerge := (ingests + liveMerges - 1) / liveMerges
	ingests = perMerge * liveMerges
	// Each slot after an ingest (the first query meets a cold pool)
	// walks its own seeded permutation of the texts, so every seed sends
	// every text equally often in every slot; seeds differ in pairing
	// and order, not in which queries run cold.
	slots := make([][]int, liveQueriesPerIn)
	for i := 0; i < ingests; i++ {
		for k := range slots {
			if len(slots[k]) == 0 {
				slots[k] = rng.Perm(len(in.Texts))
			}
			in.Ops = append(in.Ops, Op{Kind: "q", Query: slots[k][0]})
			slots[k] = slots[k][1:]
		}
		held := len(base) + rng.Intn(liveHeldOut)
		in.Docs = append(in.Docs, bufir.Document{Name: fmt.Sprintf("ingest%d", i), Text: docs[held]})
		in.Ops = append(in.Ops, Op{Kind: "i", Doc: i})
		if (i+1)%perMerge == 0 {
			in.Ops = append(in.Ops, Op{Kind: "m"})
		}
	}
	in.Pages = ix.NumPages()
	return nil
}

// writeInputs serializes the inputs; the encoding is deterministic, so
// the same seed gives a byte-identical file.
func writeInputs(dir string, in *Inputs) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return os.WriteFile(inputsPath(dir), b, 0o644)
}

func readInputs(dir string) (*Inputs, error) {
	b, err := os.ReadFile(inputsPath(dir))
	if err != nil {
		return nil, err
	}
	var in Inputs
	if err := json.Unmarshal(b, &in); err != nil {
		return nil, fmt.Errorf("decoding inputs: %w", err)
	}
	return &in, nil
}
