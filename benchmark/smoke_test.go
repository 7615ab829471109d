package main

import (
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContract holds BENCHMARK.json and the program to the same names,
// units, directions, bounds and workloads.
func TestContract(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.EndToEnd) > 16 || len(f.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(f.EndToEnd), len(f.PerLayer))
	}
	same := func(kind string, file, prog []metricDef) {
		if len(file) != len(prog) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(prog))
		}
		seen := map[string]bool{}
		for i := range file {
			if file[i] != prog[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, file[i], prog[i])
			}
			if !nameRE.MatchString(file[i].Name) || seen[file[i].Name] {
				t.Errorf("%s metric name %q is malformed or repeated", kind, file[i].Name)
			}
			seen[file[i].Name] = true
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
	hasSetup := false
	for _, d := range f.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks that each run is correct, emits every metric of its list once
// with its unit, and leaves a well-formed span log and an empty
// temporary directory behind.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			out := t.TempDir()
			rep, err := runOne(wl.name, 7, 0.3, traced, tinyScale, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %s", wl.name, traced,
					rep.Result.Correct, rep.Result.Attempted, rep.Result.Failed, rep.Error)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Result.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, want %d", wl.name, traced, len(rep.Result.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Result.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q, want %q", wl.name, traced, d.Name, m.Unit, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g; it must never be zero", wl.name, d.Name, m.Value)
				}
			}
			left, err := os.ReadDir(out)
			if err != nil {
				t.Fatal(err)
			}
			for _, entry := range left {
				if entry.IsDir() {
					t.Errorf("%s traced=%v: directory %s left behind", wl.name, traced, entry.Name())
				}
			}
			if !traced {
				continue
			}
			b, err := os.ReadFile(filepath.Join(out, wl.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatal(err)
			}
			if err := checkSpans(tf.Spans); err != nil {
				t.Errorf("%s: %v", wl.name, err)
			}
			roots := map[int]int{}
			for _, s := range tf.Spans {
				if s.Parent == 0 {
					roots[s.Request]++
				}
			}
			for req, n := range roots {
				if n != 1 {
					t.Errorf("%s: request %d has %d root spans, want 1", wl.name, req, n)
				}
			}
			if len(roots) != rep.Samples["bench.client_net_us"] {
				t.Errorf("%s: %d requests in the span log, %d measured", wl.name, len(roots), rep.Samples["bench.client_net_us"])
			}
		}
	}
}

// sequenceHash digests the first n operations each client of a workload
// would send in the timed window.
func sequenceHash(t *testing.T, wl workload, seed int64, n int) uint64 {
	t.Helper()
	sc := tinyScale
	sc.seed = seed
	in, err := wl.setup(wl.name, sc, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer in.base().close()
	if err := in.prepare(); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, src := range in.sources() {
		for i := 0; i < n; i++ {
			o := src.next()
			h.Write([]byte(o.method + " " + o.path + " " + o.body + "\n"))
			if o.ack != nil {
				o.ack()
			}
		}
	}
	return h.Sum64()
}

// TestSequenceIsSeedDetermined: the same seed gives the same requests,
// another seed gives others.
func TestSequenceIsSeedDetermined(t *testing.T) {
	for _, wl := range workloads {
		a, b, c := sequenceHash(t, wl, 3, 60), sequenceHash(t, wl, 3, 60), sequenceHash(t, wl, 4, 60)
		if a != b {
			t.Errorf("%s: two runs with seed 3 sent different requests", wl.name)
		}
		if a == c && wl.name != "scan_agg" {
			// scan_agg's eight texts name no id: the seed changes the data
			// they scan, not the texts.
			t.Errorf("%s: seeds 3 and 4 sent the same requests", wl.name)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d                  metricDef
		old, new_, spread_ float64
		want               string
	}{
		{lower, 100, 105, 0.02, "within"},
		{lower, 100, 115, 0.02, "regressed"},
		{lower, 100, 80, 0.02, "improved"},
		{lower, 100, 115, 0.20, "unresolved"},
		{higher, 100, 85, 0.02, "regressed"},
		{higher, 100, 120, 0.02, "improved"},
		{higher, 100, 97, 0.02, "within"},
	} {
		if got := verdict(c.d, c.old, c.new_, c.spread_); got != c.want {
			t.Errorf("verdict(%s, %g -> %g, spread %g) = %s, want %s", c.d.Name, c.old, c.new_, c.spread_, got, c.want)
		}
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25].
	if got, want := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5/5.5; got != want {
		t.Errorf("quartileSpread = %g, want %g", got, want)
	}
}
