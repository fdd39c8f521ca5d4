package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/soc"
)

// TestTableIIPlacementPinned pins the code placement core.PlacedJobs gives
// every Table II scenario: which cores get a job, whether their caches are
// on, where each image sits, which core carries the alignment padding and
// which strategy runs. A placement change moves the bus interleaving and so
// the coverage numbers, so it must show up here first.
func TestTableIIPlacementPinned(t *testing.T) {
	type key struct {
		active, underTest int
		pos               uint32
	}
	// Code base of cores A, B, C (0 = inactive) per active count, core
	// under test and its position; padding does not move any image.
	bases := map[key][soc.NumCores]uint32{
		{2, 0, soc.CodeLow}:  {0x1000, 0x50000, 0},
		{2, 1, soc.CodeLow}:  {0x50000, 0x1000, 0},
		{2, 0, soc.CodeMid}:  {0x40000, 0x11000, 0},
		{2, 1, soc.CodeMid}:  {0x11000, 0x40000, 0},
		{2, 0, soc.CodeHigh}: {0xa0000, 0x11000, 0},
		{2, 1, soc.CodeHigh}: {0x11000, 0xa0000, 0},
		{3, 0, soc.CodeLow}:  {0x1000, 0x50000, 0xb0000},
		{3, 1, soc.CodeLow}:  {0x50000, 0x1000, 0xb0000},
		{3, 2, soc.CodeLow}:  {0x50000, 0xb0000, 0x1000},
		{3, 0, soc.CodeMid}:  {0x40000, 0x11000, 0xb0000},
		{3, 1, soc.CodeMid}:  {0x11000, 0x40000, 0xb0000},
		{3, 2, soc.CodeMid}:  {0x11000, 0xb0000, 0x40000},
		{3, 0, soc.CodeHigh}: {0xa0000, 0x11000, 0x50000},
		{3, 1, soc.CodeHigh}: {0x11000, 0xa0000, 0x50000},
		{3, 2, soc.CodeHigh}: {0x11000, 0x50000, 0xa0000},
	}
	type scenario struct {
		spec   scenarioSpec
		cached bool
	}
	var scenarios []scenario
	for _, spec := range tableIIScenarios(false) {
		scenarios = append(scenarios, scenario{spec, false})
	}
	scenarios = append(scenarios, scenario{scenarioSpec{3, soc.CodeLow, 0}, true})
	if len(scenarios) != 19 {
		t.Fatalf("%d scenarios, want 18 plain + 1 cached", len(scenarios))
	}
	checked := 0
	for _, sc := range scenarios {
		spec := sc.spec
		for u := 0; u < spec.active; u++ {
			want, ok := bases[key{spec.active, u, spec.pos}]
			if !ok {
				t.Fatalf("no expected placement for %+v core %d", spec, u)
			}
			cfg, jobs, err := core.PlacedJobs("forwarding", u, spec.active, spec.pos, spec.pad, sc.cached)
			if err != nil {
				t.Fatal(err)
			}
			for id := 0; id < soc.NumCores; id++ {
				j := jobs[id]
				if cfg.Cores[id].CachesOn != sc.cached {
					t.Errorf("%+v core %d: setup %d caches=%v", spec, u, id, cfg.Cores[id].CachesOn)
				}
				if id >= spec.active {
					if j != nil {
						t.Errorf("%+v core %d: inactive core %d has a job", spec, u, id)
					}
					continue
				}
				var pad uint32
				if id == u {
					pad = spec.pad
				}
				if j.CodeBase != want[id] || j.AlignPad != pad {
					t.Errorf("%+v core %d: core %d at %#x pad %d, want %#x pad %d",
						spec, u, id, j.CodeBase, j.AlignPad, want[id], pad)
				}
				switch s := j.Strategy.(type) {
				case core.Plain:
					if sc.cached {
						t.Errorf("%+v core %d: core %d runs plain in the cached scenario", spec, u, id)
					}
				case core.CacheBased:
					if !sc.cached || !s.WriteAllocate {
						t.Errorf("%+v core %d: core %d strategy %+v", spec, u, id, s)
					}
				default:
					t.Errorf("%+v core %d: core %d strategy %T", spec, u, id, s)
				}
				checked++
			}
		}
	}
	if checked != 126 {
		t.Errorf("checked %d core placements, want 126", checked)
	}

	// The active set is cores 0..active-1 plus the core under test: core C
	// under test with two active cores places all three, and no active
	// cores places the core under test alone (Table III's single-core arm).
	for _, tc := range []struct {
		underTest, active int
		pos, pad          uint32
		bases             [soc.NumCores]uint32
	}{
		{2, 2, soc.CodeLow, 8, [soc.NumCores]uint32{0x50000, 0xb0000, 0x1000}},
		{1, 0, soc.CodeMid, 8, [soc.NumCores]uint32{0, 0x40000, 0}},
	} {
		_, jobs, err := core.PlacedJobs("forwarding", tc.underTest, tc.active, tc.pos, tc.pad, false)
		if err != nil {
			t.Fatal(err)
		}
		for id, j := range jobs {
			var base, pad uint32
			if j != nil {
				base, pad = j.CodeBase, j.AlignPad
			}
			wantPad := uint32(0)
			if id == tc.underTest {
				wantPad = tc.pad
			}
			if base != tc.bases[id] || pad != wantPad {
				t.Errorf("core %d with %d active: core %d at %#x pad %d, want %#x pad %d",
					tc.underTest, tc.active, id, base, pad, tc.bases[id], wantPad)
			}
		}
	}

	for _, bad := range []struct{ underTest, active int }{{0, 4}, {-1, 3}, {3, 3}} {
		if _, _, err := core.PlacedJobs("forwarding", bad.underTest, bad.active, soc.CodeLow, 0, false); err == nil {
			t.Errorf("core %d with %d active accepted", bad.underTest, bad.active)
		}
	}
}
