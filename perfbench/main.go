// Command perfbench is the repository benchmark. It runs one campaign
// workload for a fixed time, checks every output against the committed
// expected outputs, and prints the workload's end-to-end metrics (or, with
// -trace 1, its per-layer metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the root of a checkout through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload transition-solo --seed 0 --seconds 20 --trace 0
//
// The workloads, metrics and what each per-layer metric should move are
// described in perfbench/README.md and listed in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/serve"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run: its inputs, the correctness tally and the
// metrics collected so far.
type bench struct {
	workload *workload
	seed     int
	seconds  time.Duration
	work     string // scratch directory for stores and journals
	exp      *expected

	attempted, failed int
	metrics           map[string]metric
	notes             []string // human-readable lines printed before the result
	ts                traceState
}

// check counts one attempted operation and, unless ok, one failure.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
	}
	return ok
}

// set records a metric; its unit comes from the metric tables.
func (b *bench) set(name string, v float64) {
	b.metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// note adds a human-readable line to the report printed before the result.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// deadline returns the time at which a phase of share of the run ends.
func (b *bench) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(float64(b.seconds) * share))
}

// tempDir makes a fresh scratch directory under the run's work directory.
func (b *bench) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(b.work, prefix)
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name ("+workloadNames()+"), or all to run each in turn")
	seed := flag.Int("seed", 0, "input seed; the core under test is seed mod 2")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	update := flag.Bool("update", false, "regenerate perfbench/expected from reference-mode runs and exit")
	flag.Parse()

	if err := checkDefinitions("BENCHMARK.json"); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if *update {
		if err := updateExpected(filepath.Join("perfbench", "expected")); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: update: %v\n", err)
			return 1
		}
		return 0
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w := findWorkload(*name); w != nil {
		ws = []*workload{w}
	}
	if len(ws) == 0 || *seed < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload (%s, or all) --seed >= 0 --seconds >= 1 --trace 0|1\n", workloadNames())
		return 2
	}
	exp, err := loadExpected(filepath.Join("perfbench", "expected"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	code := 0
	for _, w := range ws {
		code = max(code, runWorkload(w, exp, *seed, time.Duration(*seconds)*time.Second, *trace == 1))
	}
	return code
}

// runWorkload runs one workload and prints its report; the last line is
// the result.
func runWorkload(w *workload, exp *expected, seed int, seconds time.Duration, traced bool) int {
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(work)

	b := &bench{workload: w, seed: seed, seconds: seconds, work: work, exp: exp, metrics: map[string]metric{}}
	envJSON, _ := json.Marshal(stamp(w.name, seed))
	fmt.Printf("env %s\n", envJSON)

	want := endToEnd
	if traced {
		want = perLayer
		err = runTraced(b)
	} else {
		err = w.run(b, runSpecs(w, seed))
	}
	if err != nil {
		// An operation that errors out is a failed operation; the run
		// still reports what it measured up to that point.
		b.check(false, "%s: %v", w.name, err)
	}
	for _, n := range b.notes {
		fmt.Println(n)
	}
	var missing []string
	for _, d := range want {
		if _, ok := b.metrics[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s measured no value for %v\n", w.name, missing)
		return 1
	}
	out := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	names := make([]string, 0, len(want))
	for _, d := range want {
		out.Metrics[d.name] = b.metrics[d.name]
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.Metrics[n]
		fmt.Printf("metric %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("failed_frac %g ratio (%d of %d)\n", float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// specName renders a normalized spec as a file-name-safe identifier.
func specName(s serve.Spec) string {
	n, err := s.Normalized()
	if err != nil {
		return "invalid"
	}
	mc := "solo"
	if n.Multicore {
		mc = "multicore"
	}
	return fmt.Sprintf("%s-core%d-%s-%s-%s-bitstep%d", n.Routine, n.Core, n.Strategy, mc, n.Faults, n.BitStep)
}
