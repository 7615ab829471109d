// Command benchmark measures the Gremlin→SQL serving path end to end and
// layer by layer. It boots core.Store behind server.New(...).Handler()
// on a loopback listener, configured as cmd/sqlgraphd runs by default,
// drives one of four workloads through HTTP as closed-loop clients,
// checks every answer, and prints every metric by name with its unit.
// See README.md in this directory and BENCHMARK.json at the repository
// root.
//
//	bash benchmark/run.sh --workload traverse_hot --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --seed 1                      # the suite: four workloads, untraced and traced
//	bash benchmark/run.sh --repeat                      # the suite twice, compared
//	bash benchmark/run.sh --compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: the whole suite)")
		seed    = flag.Int64("seed", 1, "seed of the dataset and of every request sequence")
		seconds = flag.Float64("seconds", 10, "length of the timed window")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
		outDir  = flag.String("out", "benchmark/out", "directory for results.json, trace files and temporary stores")
		runs    = flag.Int("runs", 1, "suite: untraced runs per workload (their median and spread are recorded)")
		compare = flag.Bool("compare", false, "compare two results.json files given as arguments")
		repeat  = flag.Bool("repeat", false, "run the suite twice on this tree and fail unless every metric agrees within its bound")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare old.json new.json"))
		}
		ok, err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *repeat:
		if *runs < 5 {
			*runs = 5
		}
		ok, err := repeatSuite(*seed, *seconds, *runs, *outDir)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *name == "":
		res, err := runSuite(*seed, *seconds, *runs, *outDir)
		if err != nil {
			fatal(err)
		}
		if !res.correct() {
			os.Exit(1)
		}
	default:
		rep, err := runOne(*name, *seed, *seconds, *traced != 0, fullScale, *outDir)
		if err != nil {
			fatal(err)
		}
		rep.print(os.Stderr)
		if err := writeJSON(fmt.Sprintf("%s/%s.trace%d.report.json", *outDir, *name, *traced), rep); err != nil {
			fatal(err)
		}
		line, err := json.Marshal(rep.Result)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !rep.Result.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
