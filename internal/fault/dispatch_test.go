package fault

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestDispatchPathString(t *testing.T) {
	want := map[DispatchPath]string{
		DispatchFullReplay:  "full_replay",
		DispatchCheckpoint:  "checkpoint_restore",
		DispatchFastForward: "fast_forward",
		DispatchGolden:      "golden_shortcut",
		DispatchFallback:    "fallback",
	}
	if len(want) != int(NumDispatchPaths) {
		t.Fatalf("test covers %d paths, enum has %d", len(want), NumDispatchPaths)
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("path %d = %q, want %q", p, p.String(), name)
		}
	}
	if got := NumDispatchPaths.String(); got != "path5" {
		t.Errorf("out-of-range path = %q, want path5", got)
	}
}

func TestDispatchStatsArithmetic(t *testing.T) {
	var d DispatchStats
	d[DispatchFullReplay] = 3
	d[DispatchCheckpoint] = 10
	d[DispatchFastForward] = 2 // reserved slot: totalled, never a shortcut
	d[DispatchGolden] = 4
	d[DispatchFallback] = 1
	if got := d.Total(); got != 20 {
		t.Errorf("Total = %d, want 20", got)
	}
	if got := d.Shortcuts(); got != 14 {
		t.Errorf("Shortcuts = %d, want 14", got)
	}
	var sum DispatchStats
	sum.Add(d)
	sum.Add(d)
	if got := sum.Total(); got != 40 {
		t.Errorf("after two Adds Total = %d, want 40", got)
	}
	s := d.String()
	for _, frag := range []string{
		"3 full-replay", "10 checkpoint", "4 golden-shortcut",
		"1 fallback", "70.0% shortcut",
	} {
		if !strings.Contains(s, frag) {
			t.Errorf("DispatchStats.String misses %q:\n%s", frag, s)
		}
	}
	if strings.Contains(s, "fast-forward") {
		t.Errorf("DispatchStats.String renders the reserved fast-forward slot:\n%s", s)
	}
	if s := (DispatchStats{}).String(); !strings.Contains(s, "0.0% shortcut") {
		t.Errorf("empty stats should render a 0%% rate, got %s", s)
	}
}

// TestSameVerdictsIgnoresDispatch pins the equality the resume and
// mode-equivalence tests rely on: Dispatch differences do not break
// verdict equality, while any verdict-bearing difference does.
func TestSameVerdictsIgnoresDispatch(t *testing.T) {
	a := Report{Golden: 0xdead, GoldenOK: true, Total: 2, Detected: 1}
	b := a
	b.Dispatch[DispatchCheckpoint] = 7
	if !a.SameVerdicts(b) {
		t.Error("dispatch-only difference broke SameVerdicts")
	}
	b.Detected = 2
	if a.SameVerdicts(b) {
		t.Error("verdict difference not caught by SameVerdicts")
	}
}

// TestReportJSONExcludesDispatch pins that report files stay
// byte-comparable across engine modes: the dispatch counts (which differ
// between arena and reference runs of the same campaign) must not appear
// in the JSON encoding.
func TestReportJSONExcludesDispatch(t *testing.T) {
	r := Report{Total: 1}
	r.Dispatch[DispatchFullReplay] = 1
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.ToLower(string(blob)), "dispatch") {
		t.Errorf("Report JSON leaks dispatch counts: %s", blob)
	}
}

// TestReportStringDispatchLine pins that Report.String appends the
// dispatch line exactly when counts exist.
func TestReportStringDispatchLine(t *testing.T) {
	r := Report{GoldenOK: true, Total: 1, Detected: 1}
	if strings.Contains(r.String(), "dispatch:") {
		t.Error("dispatch line rendered with no counts")
	}
	r.Dispatch[DispatchCheckpoint] = 1
	if !strings.Contains(r.String(), "dispatch: 0 full-replay, 1 checkpoint") {
		t.Errorf("dispatch line missing:\n%s", r.String())
	}
}
