package conform

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// syncBuffer is a goroutine-safe writer for ticker output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestFuzzTelemetryCounts pins the guided-loop instrumentation: with a
// registry attached, the iteration counter and the corpus/coverage gauges
// must land exactly on the values the FuzzResult reports, and attaching
// them must not change the run itself.
func TestFuzzTelemetryCounts(t *testing.T) {
	sc, err := Lookup("uncached")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sc.Fuzz(1, 40, time.Time{}, FuzzOptions{})
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	res, err := sc.Fuzz(1, 40, time.Time{}, FuzzOptions{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mismatch != nil {
		t.Fatalf("unexpected mismatch: %v", res.Mismatch)
	}
	if res.Iters != plain.Iters || res.Corpus != plain.Corpus ||
		res.Bits.Count() != plain.Bits.Count() {
		t.Errorf("telemetry changed the run: %d/%d iters, %d/%d corpus, %d/%d bits",
			res.Iters, plain.Iters, res.Corpus, plain.Corpus,
			res.Bits.Count(), plain.Bits.Count())
	}
	if got := reg.Counter("fuzz_iters_total").Value(); got != int64(res.Iters) {
		t.Errorf("fuzz_iters_total = %d, want %d", got, res.Iters)
	}
	if got := reg.Gauge("fuzz_corpus_size").Value(); got != int64(res.Corpus) {
		t.Errorf("fuzz_corpus_size = %d, want %d", got, res.Corpus)
	}
	if got := reg.Gauge("fuzz_coverage_bits").Value(); got != int64(res.Bits.Count()) {
		t.Errorf("fuzz_coverage_bits = %d, want %d", got, res.Bits.Count())
	}
	if got := reg.Counter("fuzz_panics_total").Value(); got != 0 {
		t.Errorf("fuzz_panics_total = %d on a clean run", got)
	}
}

// TestFuzzProgressLine pins the fuzz progress ticker: with no registry
// supplied it builds a private one, and the line carries the iteration
// count, rate and corpus/coverage state.
func TestFuzzProgressLine(t *testing.T) {
	sc, err := Lookup("uncached")
	if err != nil {
		t.Fatal(err)
	}
	var buf syncBuffer
	res, err := sc.fuzz(1, 40, time.Time{}, FuzzOptions{Progress: time.Millisecond}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mismatch != nil {
		t.Fatalf("unexpected mismatch: %v", res.Mismatch)
	}
	out := buf.String()
	if !strings.Contains(out, "fuzz:") || !strings.Contains(out, "iters/s") ||
		!strings.Contains(out, "corpus") {
		t.Errorf("fuzz progress line malformed:\n%s", out)
	}
}
