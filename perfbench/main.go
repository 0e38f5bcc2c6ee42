// Command perfbench is the ThemisIO end-to-end benchmark. It starts a
// fabric of live servers on loopback, drives it through the client API
// with one of three closed-loop workloads, verifies every byte it reads
// back, and prints each metric with its unit. The last line of standard
// output is a JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the run is split into an untraced and a traced half and the
// metrics are the per-layer ones, plus the tracing overhead.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload stripe-rw --seed 1 --seconds 30 --trace 0
//
// The command exits 1 when any output is wrong and 2 when it cannot run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	warmup    float64
	setupReps int
	traceDir  string
}

// Defaults the command line does not expose: load before the measured
// window, and fabric starts per run (their median is reported).
const (
	warmupSeconds = 2
	setupReps     = 9
)

func parseArgs(args []string, stderr io.Writer) (config, error) {
	c := config{warmup: warmupSeconds, setupReps: setupReps}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&c.seed, "seed", 1, "seed of the generated paths, payloads and schedule")
	fs.Float64Var(&c.seconds, "seconds", 30, "length of the measured window in seconds")
	fs.IntVar(&c.trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	fs.StringVar(&c.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case fs.NArg() > 0:
		return c, fmt.Errorf("unexpected arguments %q", fs.Args())
	case workloads[c.workload] == nil:
		return c, fmt.Errorf("unknown workload %q (want one of %s)", c.workload, strings.Join(workloadNames, ", "))
	case c.seconds <= 0:
		return c, fmt.Errorf("--seconds must be positive")
	case c.trace != 0 && c.trace != 1:
		return c, fmt.Errorf("--trace must be 0 or 1")
	}
	return c, nil
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	c, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return runConfig(c, stdout, stderr)
}

// runConfig runs one invocation and prints its report; it returns the
// exit code.
func runConfig(c config, stdout, stderr io.Writer) int {
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintln(out, "fingerprint", fingerprint(c))
	res, err := benchmark(c, out)
	if err != nil {
		out.Flush()
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	for _, e := range res.errs {
		fmt.Fprintln(stderr, "perfbench: failed call:", e)
	}
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "perfbench:", p)
	}
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(out, string(line))
	if !res.out.Correct {
		return 1
	}
	return 0
}

// report is what a benchmark invocation prints last.
type report struct {
	out      output
	errs     []string
	problems []string
}

// benchmark runs the configured workload and prints its metric lines.
func benchmark(c config, out io.Writer) (*report, error) {
	w := workloads[c.workload]
	o := options{seed: c.seed, seconds: dur(c.seconds), warmup: dur(c.warmup), setupReps: c.setupReps}
	if c.trace == 0 {
		res, err := execute(w, o)
		if err != nil {
			return nil, err
		}
		printNotes(out, res)
		for _, k := range kindNames {
			key := k + "_p99_ms"
			fmt.Fprintf(out, "tail %s %.6g ms n=%d\n", key, res.e2e[key], res.samples[key])
		}
		return finish(out, res.e2e, endToEndUnits, res.samples, res), nil
	}

	// The traced invocation measures half its window untraced and half
	// traced, on fresh fabrics, so its tracing overhead is measured
	// under the same conditions as the figures it qualifies.
	o.seconds /= 2
	base, err := execute(w, o)
	if err != nil {
		return nil, err
	}
	o.traced = true
	res, err := execute(w, o)
	if err != nil {
		return nil, err
	}
	printNotes(out, res)
	layers := res.layers
	metaPath := newGenPlan(c.seed, w.jobs[0].JobID, 0).path()
	replays, err := replayMetrics(w, newPool(c.seed, w.poolSize), metaPath)
	if err != nil {
		res.problems = append(res.problems, err.Error())
	}
	for k, v := range replays {
		layers[k] = v
	}
	layers["trace.overhead_MBps"] = base.meanMBps - res.meanMBps
	layers["trace.overhead_frac"] = ratio(layers["trace.overhead_MBps"], base.meanMBps)
	path, err := writeSpans(c.traceDir, fmt.Sprintf("%s-seed%d.tsv", w.name, c.seed), res.spans)
	if err != nil {
		res.problems = append(res.problems, "writing spans: "+err.Error())
	}
	fmt.Fprintf(out, "trace spans=%d file=%s\n", len(res.spans), path)
	res.attempted += base.attempted
	res.failed += base.failed
	res.problems = append(res.problems, base.problems...)
	res.errs = append(res.errs, base.errs...)
	return finish(out, layers, perLayerUnits, nil, res), nil
}

// finish prints one line per metric and builds the result line.
func finish(out io.Writer, values map[string]float64, units []unitOf, samples map[string]int, res *result) *report {
	o := output{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	for _, u := range units {
		v := values[u.name]
		o.Metrics[u.name] = metric{Value: v, Unit: u.unit}
		if n, ok := samples[u.name]; ok {
			fmt.Fprintf(out, "metric %s %.6g %s n=%d\n", u.name, v, u.unit, n)
		} else {
			fmt.Fprintf(out, "metric %s %.6g %s\n", u.name, v, u.unit)
		}
	}
	fmt.Fprintf(out, "calls attempted=%d failed=%d failed_ops_ratio=%g\n",
		res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)))
	return &report{out: o, errs: res.errs, problems: res.problems}
}

func printNotes(out io.Writer, res *result) {
	for _, n := range res.notes {
		fmt.Fprintln(out, "note", n)
	}
}

func dur(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }

// fingerprint identifies the machine, build and run settings a result
// was measured with.
func fingerprint(c config) string {
	fp := map[string]any{
		"workload":   c.workload,
		"seed":       c.seed,
		"seconds":    c.seconds,
		"trace":      c.trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	fp["vcs_revision"], fp["vcs_modified"] = "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp["vcs_revision"] = s.Value
			case "vcs.modified":
				fp["vcs_modified"] = s.Value
			}
		}
	}
	b, _ := json.Marshal(fp) // a map of strings and numbers always marshals
	return string(b)
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
