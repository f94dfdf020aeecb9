package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// forkDiag is the part of a replay process's diagnostics the parent
// reads back.
type forkDiag struct {
	PagesRead float64   `json:"pages_read_per_query"`
	Entries   float64   `json:"entries_per_query"`
	Setups    []float64 `json:"setup_samples_s"`
}

// serveForks runs the untraced measurement in forks fresh processes,
// one after another, each replaying the whole sequence, and reports for
// every metric the median over them (setup_s: the median of all their
// set-ups pooled). Every process must reproduce the first one's counts.
func serveForks(dir string) (*report, map[string]any, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	agg := &report{Correct: true, Metrics: map[string]metric{}}
	values := map[string][]float64{}
	var setups []float64
	var first *forkDiag
	var diags []json.RawMessage
	var perFork []map[string]metric
	o := &outcome{}
	for i := 0; i < forks; i++ {
		rep, raw, err := replayFork(exe, dir)
		if err != nil {
			return nil, nil, fmt.Errorf("fork %d: %w", i, err)
		}
		var fd forkDiag
		if err := json.Unmarshal(raw, &fd); err != nil {
			return nil, nil, fmt.Errorf("fork %d diagnostics: %w", i, err)
		}
		diags, perFork = append(diags, raw), append(perFork, rep.Metrics)
		agg.Correct = agg.Correct && rep.Correct
		agg.Attempted += rep.Attempted
		agg.Failed += rep.Failed
		for name, m := range rep.Metrics {
			values[name] = append(values[name], m.Value)
		}
		setups = append(setups, fd.Setups...)
		if first == nil {
			first = &fd
		} else if fd.PagesRead != first.PagesRead || fd.Entries != first.Entries {
			o.fail("fork %d read %v pages and %v entries per query, fork 0 %v and %v",
				i, fd.PagesRead, fd.Entries, first.PagesRead, first.Entries)
		}
	}
	agg.Failed += o.failed
	agg.Correct = agg.Correct && o.failed == 0
	for name, unit := range endToEnd {
		v := median(values[name])
		if name == "setup_s" {
			v = median(setups)
		}
		agg.Metrics[name] = metric{Value: v, Unit: unit}
	}
	return agg, map[string]any{"forks": diags, "fork_metrics": perFork, "failures": o.failures}, nil
}

// replayFork runs one `perfbench replay` process and returns its result
// and diagnostics. A process that found wrong answers exits non-zero
// but still reports; one that reports nothing is an error.
func replayFork(exe, dir string) (*report, json.RawMessage, error) {
	cmd := exec.Command(exe, "replay", "--dir", dir)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-1]), &rep) != nil {
		return nil, nil, errors.Join(errors.New("no result"), runErr)
	}
	diag, ok := bytes.CutPrefix([]byte(lines[len(lines)-2]), []byte(diagPrefix))
	if !ok {
		return nil, nil, errors.Join(errors.New("no diagnostics"), runErr)
	}
	return &rep, diag, nil
}
