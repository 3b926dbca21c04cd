// Command perfbench is the repository's end-to-end benchmark: it drives
// the public rld Pipeline open loop on a named workload and prints the
// end-to-end metrics, or, with --trace 1, replays the same inputs through
// each layer's public calls and prints the per-layer breakdown. See
// README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"rld"
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// endToEnd and perLayer name the metrics the final JSON line carries with
// --trace 0 and --trace 1; they mirror BENCHMARK.json.
var endToEnd = []string{"setup_s", "allocs_per_ktuple", "rss_peak_mb"}

func main() {
	rld.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: engine-join, net-join or durable-ingest")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 25, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	walDir := fs.String("wal-dir", ".bench_build/wal", "directory for write-ahead logs")
	outDir := fs.String("out", ".bench_build", "directory for the span dump")
	compare := fs.Bool("compare", false, "compare two saved outputs given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareOutputs(fs.Args(), stdout, stderr)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	walRoot := filepath.Join(*walDir, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(walRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(walRoot)
	env := currentEnvironment(w, *seed, *seconds, *trace, walRoot)

	ctx := context.Background()
	var rep *report
	if *trace == 1 {
		rep, err = runTraced(ctx, w, *seed, float64(*seconds), walRoot, *outDir)
	} else {
		var res *e2eResult
		res, err = runE2E(ctx, w, *seed, float64(*seconds), walRoot)
		if err == nil {
			rep = res.report(w)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	if err := rep.print(stdout, env, want); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct() {
		for _, p := range rep.problems {
			fmt.Fprintln(stderr, "perfbench: correctness:", p)
		}
		return 1
	}
	return 0
}

// report is one run's output.
type report struct {
	metrics           []metric
	attempted, failed int64
	problems          []string
	// breakdown and notes are printed as they are, before the result.
	breakdown, notes []string
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *report) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit, note: note})
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one line per metric, the environment line, and last the
// result line carrying the metrics named in want.
func (r *report) print(out io.Writer, env environment, want []string) error {
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%d trace=%d\n", env.Workload, env.Seed, env.Seconds, env.Trace)
	if w, err := findWorkload(env.Workload); err == nil {
		fmt.Fprintf(out, "workload %s: %s\n", w.name, w.why)
	}
	byName := map[string]metric{}
	for _, m := range r.metrics {
		byName[m.name] = m
		line := fmt.Sprintf("metric %-36s %14.6g %s", m.name, m.value, m.unit)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(out, line)
	}
	for _, l := range r.breakdown {
		fmt.Fprintln(out, "breakdown", l)
	}
	for _, l := range r.notes {
		fmt.Fprintln(out, "note", l)
	}
	fmt.Fprintf(out, "batches attempted=%d failed=%d failed_frac=%.6g\n", r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "env %s\n", envJSON)
	res := result{Correct: r.correct(), Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]metricValue{}}
	var missing []string
	for _, name := range want {
		m, ok := byName[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		res.Metrics[name] = metricValue{Value: m.value, Unit: m.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("run produced no value for %s", strings.Join(missing, ", "))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// report turns an untraced run into its metric lines.
func (res *e2eResult) report(w *workload) *report {
	r := &report{attempted: res.attempted, failed: res.failed, problems: res.problems}
	r.add("setup_s", median(res.setup), "s", fmt.Sprintf("median of %d, range %.4g..%.4g", len(res.setup), minOf(res.setup), maxOf(res.setup)))
	ladder := "ladder " + strings.Join(res.rungs, " ")
	if n := len(res.rungs); n > 0 && strings.HasSuffix(res.rungs[n-1], ":pass") {
		ladder += "; the top rung passed, so this is a lower bound"
	}
	r.add("sustained_tps", res.sustained, "1/s", ladder)
	r.add("p50_ms", res.p50, "ms", fmt.Sprintf("n=%d at %.0f tuples/s", res.latN, w.nominal))
	if res.p99OK {
		r.add("p99_ms", res.p99, "ms", fmt.Sprintf("n=%d", res.latN))
	} else {
		r.add("p99_ms", math.NaN(), "ms", fmt.Sprintf("not reportable: fewer than %d of n=%d results beyond it", minBeyond, res.latN))
	}
	r.add("cpu_ms_per_ktuple", res.cpuPerK, "ms", "")
	r.add("allocs_per_ktuple", res.allocsPerK, "count", "leader process")
	r.add("rss_peak_mb", res.rss, "MiB", "")
	r.add("gen_late_ms", res.lateMean, "ms", "mean")
	if w.durable {
		r.add("recover_ms", res.recoverMS, "ms", "")
	}
	r.add("failed_frac", float64(res.failed)/float64(max(res.attempted, 1)), "ratio", "")
	r.add("plan_switches", float64(res.planSwitches), "count", "")
	return r
}

// compareOutputs reads two saved outputs and prints each result metric
// side by side, refusing outputs from different environments.
func compareOutputs(files []string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "perfbench: --compare needs two output files")
		return 2
	}
	var envs [2]environment
	var results [2]result
	for i, f := range files {
		e, r, err := readOutput(f)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		envs[i], results[i] = e, r
	}
	if field := envs[0].mismatch(envs[1]); field != "" {
		fmt.Fprintf(stderr, "perfbench: refusing to compare: %s differs\n", field)
		return 1
	}
	for _, name := range sortedKeys(results[0].Metrics) {
		a := results[0].Metrics[name]
		b, ok := results[1].Metrics[name]
		if !ok {
			continue
		}
		fmt.Fprintf(stdout, "%-36s %14.6g %14.6g %s  %+.1f%%\n", name, a.Value, b.Value, a.Unit, 100*(b.Value-a.Value)/a.Value)
	}
	return 0
}

// readOutput parses the environment line and the result line of a saved
// run output.
func readOutput(path string) (environment, result, error) {
	var env environment
	var res result
	data, err := os.ReadFile(path)
	if err != nil {
		return env, res, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	haveEnv := false
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "env "); ok {
			if err := json.Unmarshal([]byte(rest), &env); err != nil {
				return env, res, fmt.Errorf("%s: %w", path, err)
			}
			haveEnv = true
		}
	}
	if !haveEnv {
		return env, res, fmt.Errorf("%s: no env line", path)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return env, res, fmt.Errorf("%s: last line: %w", path, err)
	}
	return env, res, nil
}
