package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// def names a metric and its unit. BENCHMARK.json lists the same names and
// units; checkDefinitions refuses to run when the two disagree.
type def struct{ name, unit string }

// endToEnd are the metrics of the untraced run, measured on every workload.
var endToEnd = []def{
	{"setup_s", "s"},
	{"job_cold_s", "s"},
	{"sites_per_s", "sites/s"},
	{"job_cached_ms", "ms"},
	{"alloc_mb", "MB"},
	{"heap_live_mb", "MB"},
}

// perLayer are the metrics of the traced run. perfbench/README.md says
// which end-to-end metric each should move, on which workload.
var perLayer = []def{
	{"serve.build_ms", "ms"},
	{"serve.http_ms.submit", "ms"},
	{"serve.http_ms.lease", "ms"},
	{"serve.http_ms.verdicts", "ms"},
	{"serve.http_ms.complete", "ms"},
	{"serve.requests", "count"},
	{"serve.shards", "count"},
	{"serve.overhead_ratio", "ratio"},
	{"fault.journal_record_us", "us"},
	{"fault.journal_resume_ms", "ms"},
	{"fault.worker_busy_frac", "ratio"},
	{"core.arena_build_ms", "ms"},
	{"core.sites.full_replay", "count"},
	{"core.sites.checkpoint_restore", "count"},
	{"core.sites.fast_forward", "count"},
	{"core.sites.golden_shortcut", "count"},
	{"core.sites.fallback", "count"},
	{"core.shortcut_ratio", "ratio"},
	{"core.run_us.full_replay", "us"},
	{"core.run_p50_us", "us"},
	{"core.run_p99_us", "us"},
	{"core.early_exits", "count"},
	{"core.checkpoints", "count"},
	{"soc.ns_per_cycle", "ns"},
	{"soc.snapshot_us", "us"},
	{"soc.restore_us", "us"},
	{"soc.reset_us", "us"},
	{"soc.golden_cycles", "cycles"},
	{"cpu.instret", "count"},
	{"cpu.if_stall", "cycles"},
	{"cpu.mem_stall", "cycles"},
	{"cpu.haz_stall", "cycles"},
	{"cpu.dual_issue", "count"},
	{"cache.i_misses", "count"},
	{"cache.d_misses", "count"},
	{"cache.d_writebacks", "count"},
	{"bus.transactions", "count"},
	{"bus.wait_cycles", "cycles"},
	{"bus.step_ns", "ns"},
	{"isa.decode_ns", "ns"},
	{"experiments.fig1_s", "s"},
	{"experiments.fig2_s", "s"},
	{"experiments.t1_s", "s"},
	{"experiments.t2_s", "s"},
	{"experiments.t3_s", "s"},
	{"experiments.t4_s", "s"},
	{"experiments.delay_s", "s"},
	{"telemetry.overhead_ratio", "ratio"},
}

// unitOf returns the unit of a metric in either table.
func unitOf(name string) string {
	for _, defs := range [][]def{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// checkDefinitions compares the metric tables with BENCHMARK.json.
func checkDefinitions(path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading %s (run from the root of a checkout): %w", path, err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	same := func(got []struct{ Name, Unit string }, want []def) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				return false
			}
		}
		return true
	}
	if !same(spec.EndToEnd, endToEnd) || !same(spec.PerLayer, perLayer) {
		return fmt.Errorf("%s metric names or units differ from the benchmark's tables", path)
	}
	return nil
}

// env is the environment stamp printed with every result, so numbers from
// different machines are never compared silently.
type env struct {
	Workload   string `json:"workload"`
	Seed       int    `json:"seed"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Workers    int    `json:"arena_workers"`
}

// arenaWorkers is the campaign worker-pool size of every workload: one
// arena, because a second worker on a 2-vCPU host roughly doubled the
// run-to-run spread of campaign times.
const arenaWorkers = 1

func stamp(workload string, seed int) env {
	return env{
		Workload: workload, Seed: seed, Commit: sourceDigest(),
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(), Workers: arenaWorkers,
	}
}

// sourceDigest identifies the code under test. Checkouts carry no git
// metadata, so the commit is named by a digest of the program's sources:
// go.mod and every .go file under cmd/ and internal/.
func sourceDigest() string {
	var files []string
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range append([]string{"go.mod"}, files...) {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel reads the host CPU model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuNow is the CPU time the process has used so far: user and system
// time of all its threads, without the time the host steals from the
// virtual CPUs. Every timing that feeds an end-to-end metric uses it
// rather than the wall clock. On a shared host the wall time of the same
// unit moved by tens of percent from run to run with the neighbours' load,
// while its CPU time is the work the program did. Every workload runs one
// arena worker, so on an idle machine the two differ little.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocBytes is the cumulative heap allocation, read without stopping the
// world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveMB is the live heap in MB as of the last completed collection.
func liveMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / mb
}

// heapSampler tracks the highest live heap, the bytes the collector last
// marked reachable, by sampling runtime/metrics, which does not stop the
// world. The in-use heap (live plus not yet swept objects) peaks where the
// collector's pacer, which adapts to measured host speed, starts a cycle:
// its peak moved by up to 25% between runs of the same code. The live heap
// is the memory the program's data needs; the heap the process holds is
// that times 1+GOGC/100.
type heapSampler struct {
	stop, done chan struct{}
	once       sync.Once
	mu         sync.Mutex
	live       uint64 // highest sample since the last window call
}

// heapSampleEvery is the sampling period: short next to a cold unit
// (0.7 s or more), long enough that sampling costs nothing measurable.
const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.live = max(h.live, s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// window returns the highest live heap in MB since the previous call and
// starts a new window.
func (h *heapSampler) window() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	l := h.live
	h.live = 0
	return float64(l) / mb
}

// Stop ends sampling and waits for the sampler to exit. It may be called
// more than once.
func (h *heapSampler) Stop() {
	h.once.Do(func() { close(h.stop) })
	<-h.done
}
