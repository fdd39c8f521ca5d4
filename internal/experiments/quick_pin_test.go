package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickTablesPinned renders every quick table and figure in cmd/repro
// order, each under a "### <name>" header, and requires the text to equal
// the repo benchmark's committed expected output byte for byte. That file
// is the one source of truth for the quick tables; the test reads it and
// keeps no copy. Any drift in code placement, bus timing or fault grading
// shows up here.
func TestQuickTablesPinned(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "perfbench", "expected", "paper-quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true}
	suite := []struct {
		name   string
		render func() (string, error)
	}{
		{"fig1", func() (string, error) { r, err := Figure1(o); return renderOK(r, err, RenderFigure1) }},
		{"fig2", func() (string, error) { r, err := Figure2(o); return renderOK(r, err, RenderFigure2) }},
		{"t1", func() (string, error) { r, err := TableI(o); return renderOK(r, err, RenderTableI) }},
		{"t2", func() (string, error) { r, err := TableII(o); return renderOK(r, err, RenderTableII) }},
		{"t3", func() (string, error) { r, err := TableIII(o); return renderOK(r, err, RenderTableIII) }},
		{"t4", func() (string, error) { r, err := TableIV(o); return renderOK(r, err, RenderTableIV) }},
		{"delay", func() (string, error) { r, err := DelayFaults(o); return renderOK(r, err, RenderDelay) }},
	}
	var sb strings.Builder
	for _, s := range suite {
		text, err := s.render()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		fmt.Fprintf(&sb, "### %s\n%s\n", s.name, text)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("quick tables differ from the expected output:\n--- got\n%s--- want\n%s", got, want)
	}
}

func renderOK[R any](r R, err error, render func(R) string) (string, error) {
	if err != nil {
		return "", err
	}
	return render(r), nil
}
