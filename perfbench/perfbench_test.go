package main

import (
	"bytes"
	"context"
	"os"
	"testing"
)

// prepared builds a workload's inputs at tiny scale into a fresh
// directory and returns it with the serialized inputs.
func prepared(t *testing.T, workload string, seed int64) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	in, err := prepare(workload, seed, 1, "tiny", dir)
	if err != nil {
		t.Fatalf("prepare %s seed %d: %v", workload, seed, err)
	}
	if err := writeInputs(dir, in); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(inputsPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	return dir, b
}

var workloads = []string{refineDisk, adhocHot, liveIngest}

func TestSameSeedSameOps(t *testing.T) {
	for _, w := range workloads {
		_, a := prepared(t, w, 7)
		_, b := prepared(t, w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different input files", w)
		}
		_, c := prepared(t, w, 8)
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same input file", w)
		}
	}
}

// exactFigures are the counts and ratios that must repeat exactly
// across runs of one seed.
func exactFigures(t *testing.T, in *Inputs, dir string) map[string]float64 {
	t.Helper()
	o := &outcome{}
	m, err := measure(context.Background(), in, dir, 1, o)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 {
		t.Fatalf("%s: %d failed operations: %v", in.Workload, o.failed, o.failures)
	}
	lm, err := countMetrics(in, m)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]float64{
		"pages_read_per_query":   lm["pages_read_per_query"],
		"eval.entries_per_query": lm["eval.entries_per_query"],
		"overlap_at_20":          m.overlap,
		"disk_bytes_per_posting": m.bytesPP,
	}
}

func TestShortRunsRepeatExactly(t *testing.T) {
	for _, w := range workloads {
		dir, _ := prepared(t, w, 3)
		in, err := readInputs(dir)
		if err != nil {
			t.Fatal(err)
		}
		a, b := exactFigures(t, in, dir), exactFigures(t, in, dir)
		for k, v := range a {
			if b[k] != v {
				t.Errorf("%s: %s was %v, then %v", w, k, v, b[k])
			}
			if v == 0 && k != "pages_read_per_query" {
				t.Errorf("%s: %s is 0", w, k)
			}
		}
	}
}

func TestTracedRunReproducesCounts(t *testing.T) {
	for _, w := range workloads {
		dir, _ := prepared(t, w, 5)
		in, err := readInputs(dir)
		if err != nil {
			t.Fatal(err)
		}
		o := &outcome{}
		ctx := context.Background()
		m, err := measure(ctx, in, dir, 1, o)
		if err != nil {
			t.Fatal(err)
		}
		var lm layerMetrics
		if w == liveIngest {
			lm, err = traceLive(ctx, in, dir, m, o)
		} else {
			lm, err = traceSynthetic(ctx, in, dir, m, o)
		}
		if err != nil {
			t.Fatal(err)
		}
		if o.failed != 0 || lm["trace.counts_match"] != 1 {
			t.Errorf("%s: traced replay differs from the untraced one: %v", w, o.failures)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	cases := []struct {
		n  int
		p  float64
		ok bool
	}{
		{999, 0.99, false}, {1000, 0.99, true},
		{199, 0.95, false}, {200, 0.95, true},
		{19, 0.5, false}, {20, 0.5, true},
	}
	for _, c := range cases {
		v, err := percentile(xs(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err %v, want ok=%v", c.p*100, c.n, err, c.ok)
		}
		if c.ok && v != float64(c.n)*c.p {
			t.Errorf("p%g of 1..%d = %v, want %v", c.p*100, c.n, v, float64(c.n)*c.p)
		}
	}
}
