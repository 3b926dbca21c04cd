package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rld"
	"rld/internal/stream"
)

// TestMain lets net-join's worker processes, which re-execute this test
// binary, serve instead of running the tests.
func TestMain(m *testing.M) {
	rld.MaybeWorker()
	os.Exit(m.Run())
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	var s []wsample
	for v := 1; v <= 100; v++ {
		s = append(s, wsample{v: float64(v), n: 1})
	}
	if v, ok := percentile(s, 0.50); v != 50 || !ok {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50, true", v, ok)
	}
	if v, ok := percentile(s, 0.99); v != 99 || ok {
		t.Fatalf("p99 of 1..100 = %v, %v; want 99 and not reportable (1 beyond)", v, ok)
	}
	if _, ok := percentile(s, 0.90); !ok {
		t.Fatal("p90 of 1..100 has 10 samples beyond it and must be reportable")
	}
	// Weighted samples count each result; ties are not beyond.
	w := []wsample{{v: 2, n: 10}, {v: 1, n: 990}}
	if v, ok := percentile(w, 0.99); v != 1 || !ok {
		t.Fatalf("weighted p99 = %v, %v; want 1, true", v, ok)
	}
	tied := []wsample{{v: 1, n: 995}, {v: 1, n: 5}}
	if _, ok := percentile(tied, 0.5); ok {
		t.Fatal("nothing lies beyond a percentile every sample ties with")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples must not be reportable")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

func TestCheckerRejectsCorruptResults(t *testing.T) {
	w, _ := findWorkload("engine-join")
	ck := newChecker(w)
	q := w.query()
	sch := stream.NewJoinSchema(q.Streams)
	s1, s2, s3 := sch.Slot("S1"), sch.Slot("S2"), sch.Slot("S3")
	build := func(key1 int64, val1 float64, withS3 bool) *stream.Joined {
		j := sch.Acquire()
		j.SetPart(s1, 1, 1, key1, 1, []float64{val1})
		j.SetPart(s2, 2, 1, 7, 1, []float64{50})
		if withS3 {
			j.SetPart(s3, 3, 1, 7, 1, []float64{50})
		}
		return j
	}
	if err := ck.check(build(7, 1, true)); err != nil {
		t.Fatalf("sound result rejected: %v", err)
	}
	for name, j := range map[string]*stream.Joined{
		"key mismatch":     build(8, 1, true),
		"op1 fails select": build(7, ck.thr, true),
		"missing S3":       build(7, 1, false),
	} {
		if err := ck.check(j); err == nil {
			t.Errorf("%s: corrupted result accepted", name)
		}
	}
	// A result without the op1 stream needs only the joined streams.
	j := sch.Acquire()
	j.SetPart(s2, 2, 1, 5, 1, []float64{99})
	j.SetPart(s3, 3, 1, 5, 1, []float64{99})
	if err := ck.check(j); err != nil {
		t.Fatalf("S2-S3 result rejected: %v", err)
	}
}

// batchDigest flattens a batch's columns for comparison.
func batchDigest(b *stream.Batch) string {
	return fmt.Sprint(b.Stream, b.Seq, b.Ts, b.Key, b.Arr, b.Vals)
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b, c := newGenerator(w, 42), newGenerator(w, 42), newGenerator(w, 43)
		same := true
		for k := 0; k < 60; k++ {
			due, rate := float64(k)*0.01, w.nominal*float64(1+k/20)
			ba, bb, bc := a.next(due, rate), b.next(due, rate), c.next(due, rate)
			if batchDigest(ba) != batchDigest(bb) {
				t.Fatalf("%s: seed 42 gave two different rusters at step %d", w.name, k)
			}
			if batchDigest(ba) != batchDigest(bc) {
				same = false
			}
			ba.Release()
			bb.Release()
			bc.Release()
		}
		if same {
			t.Fatalf("%s: seeds 42 and 43 gave identical inputs", w.name)
		}
	}
}

func TestGeneratorSwingsOp1(t *testing.T) {
	w, _ := findWorkload("engine-join")
	g := newGenerator(w, 1)
	pass := func(t0 float64) float64 {
		in, out := 0, 0
		for k := 0; k < 300; k++ {
			b := g.next(t0, w.nominal)
			if b.Stream == "S1" {
				for i := 0; i < b.Len(); i++ {
					in++
					if b.Vals[i] < g.thr {
						out++
					}
				}
			}
			b.Release()
		}
		return float64(out) / float64(in)
	}
	hi, lo := pass(0.1), pass(swingPeriod/2+0.1)
	if hi < g.hi-0.03 || hi > g.hi+0.03 || lo < g.lo-0.03 || lo > g.lo+0.03 {
		t.Fatalf("op1 pass rates %.3f / %.3f, want about %.3f / %.3f", hi, lo, g.hi, g.lo)
	}
}

func TestCompareRefusesMismatchedEnvironment(t *testing.T) {
	dir := t.TempDir()
	w, _ := findWorkload("engine-join")
	write := func(name string, env environment) string {
		r := &report{attempted: 1}
		r.add("setup_s", 1, "s", "")
		var buf bytes.Buffer
		if err := r.print(&buf, env, []string{"setup_s"}); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	env := currentEnvironment(w, 1, 10, 0, dir)
	a := write("a", env)
	other := env
	other.Seed = 2
	b := write("b", other)
	other.GOMAXPROCS++
	c := write("c", other)
	var out, errb bytes.Buffer
	if code := run([]string{"--compare", a, b}, &out, &errb); code != 0 {
		t.Fatalf("same environment, different seed: exit %d: %s", code, errb.String())
	}
	errb.Reset()
	if code := run([]string{"--compare", a, c}, &out, &errb); code == 0 || !strings.Contains(errb.String(), "gomaxprocs") {
		t.Fatalf("mismatched GOMAXPROCS compared: exit %d: %s", code, errb.String())
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workload and metric
// names in step with what the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json above the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct{ Name string }      `json:"end_to_end"`
		PerLayer  []struct{ Name string }      `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) string {
		var s []string
		for _, x := range xs {
			s = append(s, x.Name)
		}
		return strings.Join(s, ",")
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s := spec.Workloads[i]; s.Name != w.name || s.Why != w.why {
			t.Errorf("workload %d is %q (%q), program has %q (%q)", i, s.Name, s.Why, w.name, w.why)
		}
	}
	if got, want := names(spec.EndToEnd), strings.Join(endToEnd, ","); got != want {
		t.Errorf("end_to_end %s, program reports %s", got, want)
	}
	if got, want := names(spec.PerLayer), strings.Join(perLayer, ","); got != want {
		t.Errorf("per_layer %s, program reports %s", got, want)
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each prints every metric name and a correct result line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for several seconds")
	}
	e2e := []string{"setup_s", "sustained_tps", "p50_ms", "p99_ms", "cpu_ms_per_ktuple", "allocs_per_ktuple",
		"rss_peak_mb", "gen_late_ms", "failed_frac"}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				dir := t.TempDir()
				var out, errb bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "5", "--seconds", "1", "--trace", trace,
					"--wal-dir", filepath.Join(dir, "wal"), "--out", dir}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
				}
				want := perLayer
				if trace == "0" {
					want = e2e
					if w.durable {
						want = append(want, "recover_ms")
					}
				}
				for _, name := range want {
					if !strings.Contains(out.String(), "metric "+name+" ") {
						t.Errorf("no %s line in\n%s", name, out.String())
					}
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
			})
		}
	}
}
