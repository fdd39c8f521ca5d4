package fault

import (
	"fmt"
	"reflect"
)

// DispatchPath classifies how the campaign engine served one site's run.
// The arena picks the cheapest sound path per site (see core.Arena); the
// per-path counts are the number that explains why a campaign was fast or
// slow, so they ride on the Report and feed the telemetry histograms.
type DispatchPath uint8

// The dispatch paths, cheapest-sound-path order as the arena tries them.
const (
	// DispatchFullReplay is a reset + plane-swap run from cycle 0.
	DispatchFullReplay DispatchPath = iota
	// DispatchCheckpoint is a run started from a golden checkpoint before
	// the site's first activating edge.
	DispatchCheckpoint
	// DispatchFastForward is a reserved slot that no path produces: the
	// re-convergence fast-forward it counted was deleted because it cost
	// more allocation than it saved time. The slot keeps its index and
	// "fast_forward" name so per-path metric names and the benchmark's
	// per-path report stay stable; its count is always zero.
	DispatchFastForward
	// DispatchGolden is a site served the golden verdict outright because
	// its fault never activates.
	DispatchGolden
	// DispatchFallback is a rebuild-per-fault run on a fresh SoC
	// (quarantined or dead arena).
	DispatchFallback
	// NumDispatchPaths sizes per-path arrays.
	NumDispatchPaths
)

// dispatchNames renders paths for reports and metric names.
var dispatchNames = [NumDispatchPaths]string{
	"full_replay", "checkpoint_restore", "fast_forward", "golden_shortcut", "fallback",
}

func (p DispatchPath) String() string {
	if int(p) < len(dispatchNames) {
		return dispatchNames[p]
	}
	return fmt.Sprintf("path%d", uint8(p))
}

// DispatchStats counts served sites per dispatch path. It is an execution
// -strategy diagnostic, not verdict content: reports stay bit-identical
// across engine modes while their DispatchStats differ, so the field is
// excluded from Report JSON and from report equality.
type DispatchStats [NumDispatchPaths]int64

// Total returns the number of sites served across all paths.
func (d DispatchStats) Total() int64 {
	var n int64
	for _, c := range d {
		n += c
	}
	return n
}

// Shortcuts returns the sites that avoided a full replay (checkpoint
// restore or golden shortcut).
func (d DispatchStats) Shortcuts() int64 {
	return d[DispatchCheckpoint] + d[DispatchGolden]
}

// Add accumulates o into d (per-arena stats folding into a campaign
// total).
func (d *DispatchStats) Add(o DispatchStats) {
	for i := range d {
		d[i] += o[i]
	}
}

// SameVerdicts reports whether two reports agree on every verdict-bearing
// field, ignoring the execution-strategy Dispatch counts — the equality
// the mode-equivalence and resume pins check (a resumed or
// differently-optimized campaign serves sites through different paths
// while computing the identical report).
func (r Report) SameVerdicts(o Report) bool {
	r.Dispatch, o.Dispatch = DispatchStats{}, DispatchStats{}
	return reflect.DeepEqual(r, o)
}

// String renders the per-path counts with the shortcut rate — the line
// Report.String appends so campaign output shows checkpoint
// effectiveness.
func (d DispatchStats) String() string {
	total := d.Total()
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(d.Shortcuts()) / float64(total)
	}
	return fmt.Sprintf("dispatch: %d full-replay, %d checkpoint, %d golden-shortcut, %d fallback (%.1f%% shortcut)",
		d[DispatchFullReplay], d[DispatchCheckpoint], d[DispatchGolden], d[DispatchFallback], pct)
}
