// Command perfbench is bufir's benchmark: three workloads, each a fixed
// seeded sequence of operations issued closed-loop through the public
// front door (bufir.Open → Service), with answer checks and a separate
// traced run that times the calls into each layer. See README.md.
//
//	perfbench prepare --workload W --seed N --seconds S --dir D
//	perfbench serve   --trace 0|1 --dir D [--record F]
//	perfbench replay  --dir D
//
// prepare builds the inputs (collection, index files, op sequence and
// reference answers) into D; serve measures them and prints one JSON
// object as its last line — untraced, by running replay in fresh
// processes (see forks); traced, in its own process. run.py drives
// prepare and serve.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line serve prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics and their units. Every
// workload reports all of them.
var endToEnd = map[string]string{
	"setup_s":                "s",
	"query_qps":              "1/s",
	"query_p50_ms":           "ms",
	"query_p99_ms":           "ms",
	"success_frac":           "frac",
	"peak_rss_mb":            "MiB",
	"overlap_at_20":          "frac",
	"disk_bytes_per_posting": "B",
}

// perLayer lists the traced run's metrics and their units. Every
// workload reports all of them; a layer a workload does not exercise
// reports 0.
var perLayer = map[string]string{
	"engine.queue_wait_us_p50":           "us",
	"engine.dispatch_us_per_query":       "us",
	"router.merge_us_per_query":          "us",
	"router.shard_skew":                  "ratio",
	"eval.self_us_per_query":             "us",
	"eval.entries_per_query":             "count",
	"eval.ns_per_entry":                  "ns",
	"eval.accumulators_per_query":        "count",
	"eval.selection_inquiries_per_query": "count",
	"eval.baf_estimate_error":            "pages",
	"evalsafe.self_us_per_query":         "us",
	"evalsafe.pages_skipped_frac":        "frac",
	"buffer.hit_ratio":                   "frac",
	"buffer.evictions_per_query":         "count",
	"buffer.fetch_hit_ns":                "ns",
	"buffer.miss_self_us":                "us",
	"buffer.announce_us_per_query":       "us",
	"pages_read_per_query":               "count",
	"storage.read_us_p50":                "us",
	"storage.read_share":                 "frac",
	"livedex.commit_ms_p50":              "ms",
	"livedex.delta_docs_mean":            "count",
	"livedex.merge_bytes_written":        "B",
	"ingest_p50_ms":                      "ms",
	"ingest_p95_ms":                      "ms",
	"merge_p50_ms":                       "ms",
	"textproc.query_parse_us":            "us",
	"textproc.doc_tokenize_us":           "us",
	"runtime.alloc_bytes_per_query":      "B",
	"runtime.allocs_per_query":           "count",
	"runtime.gc_cpu_frac":                "frac",
	"runtime.cpu_us_per_query":           "us",
	"trace.overhead_frac":                "frac",
	"trace.self_sum_frac":                "frac",
	"trace.counts_match":                 "bool",
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench prepare|serve|replay [flags]")
		os.Exit(2)
	}
	fs := flag.NewFlagSet(os.Args[1], flag.ExitOnError)
	workload := fs.String("workload", "", "refine-disk, adhoc-hot or live-ingest")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "sizes the fixed op sequence")
	trace := fs.Int("trace", 0, "1 for the traced run's per-layer metrics")
	dir := fs.String("dir", "", "work directory for inputs and index files")
	record := fs.String("record", "", "file to write the run record to")
	_ = fs.Parse(os.Args[2:])
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: --dir is required")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "prepare":
		var in *Inputs
		if in, err = prepare(*workload, *seed, *seconds, "", *dir); err == nil {
			err = writeInputs(*dir, in)
		}
	case "serve", "replay":
		var rep *report
		var diag map[string]any
		switch {
		case os.Args[1] == "replay" || *trace == 1:
			rep, diag, err = serve(context.Background(), *dir, *trace == 1)
		default:
			rep, diag, err = serveForks(*dir)
		}
		if err == nil {
			err = emit(rep, diag, *record)
			if err == nil && !rep.Correct {
				os.Exit(1)
			}
		}
	default:
		err = fmt.Errorf("unknown command %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// serve measures a prepared work directory in this process: the
// untraced replay, and with trace the traced replays after it.
func serve(ctx context.Context, dir string, trace bool) (*report, map[string]any, error) {
	in, err := readInputs(dir)
	if err != nil {
		return nil, nil, err
	}
	diag := map[string]any{"workload": in.Workload, "seed": in.Seed, "ops": len(in.Ops), "calibration_before_s": calibrate()}
	o := &outcome{}
	reps := setupReps
	if trace {
		reps = 1
	}
	m, err := measure(ctx, in, dir, reps, o)
	if err != nil {
		return nil, nil, err
	}
	var pr, ent float64
	for _, r := range m.recs {
		pr += float64(r.counts[0])
		ent += float64(r.counts[2])
	}
	diag["pages_read_per_query"] = pr / float64(queries(in))
	diag["entries_per_query"] = ent / float64(queries(in))
	values := map[string]float64{}
	units := endToEnd
	if !trace {
		var lat []float64
		var ends []time.Duration
		for i, r := range m.recs {
			if in.Ops[i].Kind == "q" {
				lat = append(lat, r.lat)
				ends = append(ends, r.end)
			}
		}
		p50, err := percentile(lat, 0.5)
		if err != nil {
			return nil, nil, err
		}
		p99, err := percentile(lat, 0.99)
		if err != nil {
			return nil, nil, err
		}
		qps, rates := blockQPS(ends)
		diag["block_qps"], diag["setup_samples_s"] = rates, m.setups
		values = map[string]float64{
			"setup_s":                median(m.setups),
			"query_qps":              qps,
			"query_p50_ms":           p50,
			"query_p99_ms":           p99,
			"success_frac":           float64(o.attempted-o.failed) / float64(o.attempted),
			"peak_rss_mb":            m.peakRSS,
			"overlap_at_20":          m.overlap,
			"disk_bytes_per_posting": m.bytesPP,
		}
	} else {
		units = perLayer
		counted, err := countMetrics(in, m)
		if err != nil {
			return nil, nil, err
		}
		var traced layerMetrics
		if in.Workload == liveIngest {
			traced, err = traceLive(ctx, in, dir, m, o)
		} else {
			traced, err = traceSynthetic(ctx, in, dir, m, o)
		}
		if err != nil {
			return nil, nil, err
		}
		for name := range perLayer {
			values[name] = 0
		}
		for _, lm := range []layerMetrics{counted, traced} {
			for k, v := range lm {
				if _, ok := perLayer[k]; !ok {
					return nil, nil, fmt.Errorf("unlisted per-layer metric %q", k)
				}
				values[k] = v
			}
		}
	}
	diag["calibration_after_s"] = calibrate()
	diag["failures"] = o.failures
	rep := &report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for name, unit := range units {
		rep.Metrics[name] = metric{Value: values[name], Unit: unit}
	}
	return rep, diag, nil
}

// diagPrefix starts the diagnostics line, the one before the result.
const diagPrefix = "# diagnostics "

// emit writes the run record (diagnostics plus the result) and prints
// the diagnostics, failures to stderr, and the result as the last line.
func emit(rep *report, diag map[string]any, record string) error {
	if fl, ok := diag["failures"].([]string); ok && len(fl) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: failed operations:\n  "+strings.Join(fl, "\n  "))
	}
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# %-36s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	d, err := json.Marshal(diag)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", diagPrefix, d)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if record != "" {
		rec, err := json.MarshalIndent(map[string]any{"diagnostics": diag, "result": rep}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(record, rec, 0o644); err != nil {
			return err
		}
	}
	fmt.Println(string(line))
	return nil
}
