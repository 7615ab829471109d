package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// host describes where a suite ran; two result files from different
// hosts are not comparable and -compare says so.
type host struct {
	NProc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	Go             string `json:"go"`
	LoadavgAtStart string `json:"loadavg_at_start"`
	Commit         string `json:"commit"`
}

func thisHost() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadavgAtStart = strings.TrimSpace(string(b))
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// suiteWorkload is one workload's part of results.json: every untraced
// run, the median and quartile spread of each end-to-end metric over
// them, and the traced run.
type suiteWorkload struct {
	Name   string             `json:"name"`
	Runs   []*report          `json:"runs"`
	Median map[string]float64 `json:"median"`
	Spread map[string]float64 `json:"spread"`
	Traced *report            `json:"traced"`
}

type suiteResults struct {
	Host      host            `json:"host"`
	Seed      int64           `json:"seed"`
	Seconds   float64         `json:"seconds"`
	Workloads []suiteWorkload `json:"workloads"`
}

func (r *suiteResults) correct() bool {
	for _, w := range r.Workloads {
		for _, rep := range append(w.Runs, w.Traced) {
			if rep == nil || !rep.Result.Correct {
				return false
			}
		}
	}
	return true
}

// runSuite runs every workload, untraced `runs` times and traced once,
// each in a process of its own so that heap size, resident set and GC
// state start equal, and writes results.json and the trace files to
// outDir.
func runSuite(seed int64, seconds float64, runs int, outDir string) (*suiteResults, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := &suiteResults{Host: thisHost(), Seed: seed, Seconds: seconds}
	child := func(name string, traced int) (*report, error) {
		cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced), "--out", outDir)
		cmd.Stdout = io.Discard // the result line; the report file holds the same and more
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		path := filepath.Join(outDir, fmt.Sprintf("%s.trace%d.report.json", name, traced))
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("%s (trace %d): %v; no report: %w", name, traced, runErr, err)
		}
		os.Remove(path)
		rep := new(report)
		return rep, json.Unmarshal(b, rep)
	}
	for _, wl := range workloads {
		sw := suiteWorkload{Name: wl.name, Median: map[string]float64{}, Spread: map[string]float64{}}
		for i := 0; i < runs; i++ {
			rep, err := child(wl.name, 0)
			if err != nil {
				return nil, err
			}
			sw.Runs = append(sw.Runs, rep)
		}
		for _, d := range endToEnd {
			var vs []float64
			for _, rep := range sw.Runs {
				vs = append(vs, rep.Result.Metrics[d.Name].Value)
			}
			sw.Median[d.Name] = median(vs)
			sw.Spread[d.Name] = quartileSpread(vs)
		}
		if sw.Traced, err = child(wl.name, 1); err != nil {
			return nil, err
		}
		res.Workloads = append(res.Workloads, sw)
	}
	path := filepath.Join(outDir, "results.json")
	if err := writeJSON(path, res); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
	return res, nil
}

func readResults(path string) (*suiteResults, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := new(suiteResults)
	if err := json.Unmarshal(b, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// verdict judges one end-to-end metric of one workload. worse is how far
// the new median moved in the metric's bad direction, as a share of the
// old one.
func verdict(d metricDef, oldMed, newMed, spread float64) string {
	worse := ratio(newMed-oldMed, oldMed)
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread > d.Bound:
		return "unresolved" // the runs of one side disagree by more than the bound
	case worse > d.Bound:
		return "regressed"
	case -worse > spread && -worse > d.Bound/3:
		return "improved"
	default:
		return "within"
	}
}

// compareResults prints one row per workload and end-to-end metric and
// reports whether every row is "within" or "improved".
func compareResults(a, b *suiteResults, w io.Writer) (allWithin, noneWorse bool) {
	allWithin, noneWorse = true, true
	if a.Host.NProc != b.Host.NProc || a.Host.Go != b.Host.Go || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "warning: the two files differ in host or run length (%+v, %g s against %+v, %g s)\n", a.Host, a.Seconds, b.Host, b.Seconds)
	}
	fmt.Fprintf(w, "%-13s %-27s %14s %14s  %-22s %6s %7s  %s\n", "workload", "metric", "old median", "new median", "new/old (base)", "bound", "spread", "verdict")
	byName := map[string]suiteWorkload{}
	for _, sw := range b.Workloads {
		byName[sw.Name] = sw
	}
	for _, old := range a.Workloads {
		cur, ok := byName[old.Name]
		if !ok {
			fmt.Fprintf(w, "%-13s missing from the new file\n", old.Name)
			allWithin, noneWorse = false, false
			continue
		}
		for _, d := range endToEnd {
			om, nm := old.Median[d.Name], cur.Median[d.Name]
			spread := max(old.Spread[d.Name], cur.Spread[d.Name])
			v := verdict(d, om, nm, spread)
			if v != "within" {
				allWithin = false
			}
			if v == "regressed" || v == "unresolved" {
				noneWorse = false
			}
			fmt.Fprintf(w, "%-13s %-27s %14.4f %14.4f  %-22s %5.0f%% %6.1f%%  %s\n", old.Name, d.Name, om, nm,
				fmt.Sprintf("%.3fx of %.4g %s", ratio(nm, om), om, d.Unit), 100*d.Bound, 100*spread, v)
		}
	}
	return allWithin, noneWorse
}

func compareFiles(oldPath, newPath string, w io.Writer) (bool, error) {
	a, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	b, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	_, noneWorse := compareResults(a, b, w)
	return noneWorse, nil
}

// repeatSuite runs the suite twice on the current tree. Two runs of the
// same code must agree: anything but "within" on any row fails.
func repeatSuite(seed int64, seconds float64, runs int, outDir string) (bool, error) {
	a, err := runSuite(seed, seconds, runs, filepath.Join(outDir, "repeat-a"))
	if err != nil {
		return false, err
	}
	b, err := runSuite(seed, seconds, runs, filepath.Join(outDir, "repeat-b"))
	if err != nil {
		return false, err
	}
	allWithin, _ := compareResults(a, b, os.Stdout)
	return allWithin && a.correct() && b.correct(), nil
}
