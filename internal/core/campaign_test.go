package core

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/soc"
)

// TestUniverse pins Universe's site counts per routine, fault model, core
// and bit step, and checks every universe equals the enumeration it
// replaced: the service spec's routine switch (the HDCU routine also
// grading the performance counters, core C 64 bits wide) and Table III's
// per-module lists. It also pins the rejections.
func TestUniverse(t *testing.T) {
	dataBits := [soc.NumCores]int{32, 32, 64}
	steps := []int{1, 8}
	cases := []struct {
		routine, faults string
		want            [2][soc.NumCores]int // per bit step, per core
		list            func(fault.ListOptions) []fault.Site
	}{
		{"forwarding", "stuckat", [2][soc.NumCores]int{{1176, 1176, 2328}, {168, 168, 312}},
			fault.ForwardingLogic},
		{"forwarding", "transition", [2][soc.NumCores]int{{1152, 1152, 2304}, {144, 144, 288}},
			fault.TransitionFaults},
		{"hdcu", "stuckat", [2][soc.NumCores]int{{412, 412, 412}, {300, 300, 300}},
			func(o fault.ListOptions) []fault.Site {
				return append(fault.HDCU(o), fault.PerfCounters(o)...)
			}},
		{"icu", "stuckat", [2][soc.NumCores]int{{48, 48, 48}, {48, 48, 48}},
			fault.ICU},
	}
	for _, c := range cases {
		for k, step := range steps {
			for id := 0; id < soc.NumCores; id++ {
				got, err := Universe(c.routine, c.faults, id, step)
				if err != nil {
					t.Fatalf("%s/%s core %d step %d: %v", c.routine, c.faults, id, step, err)
				}
				if len(got) != c.want[k][id] {
					t.Errorf("%s/%s core %d step %d: %d sites, want %d",
						c.routine, c.faults, id, step, len(got), c.want[k][id])
				}
				want := c.list(fault.ListOptions{DataBits: dataBits[id], BitStep: step})
				fault.SortSites(want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s core %d step %d: universe differs from the enumeration it replaced",
						c.routine, c.faults, id, step)
				}
			}
		}
	}

	// Table III graded the HDCU at full width and bit step, the counters at
	// the suite's bit step, and the ICU at bit step 1.
	for _, step := range steps {
		for id := 0; id < soc.NumCores; id++ {
			hdcu := fault.HDCU(fault.ListOptions{BitStep: 1})
			hdcu = append(hdcu, fault.PerfCounters(fault.ListOptions{BitStep: step})...)
			icu := fault.ICU(fault.ListOptions{BitStep: 1})
			for routine, want := range map[string][]fault.Site{"hdcu": hdcu, "icu": icu} {
				fault.SortSites(want)
				got, err := Universe(routine, "stuckat", id, step)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%s core %d step %d: differs from Table III's universe (err %v)", routine, id, step, err)
				}
			}
		}
	}

	for _, bad := range [][2]string{
		{"hdcu", "transition"}, {"icu", "transition"},
		{"nosuch", "stuckat"}, {"stl", "stuckat"}, {"forwarding", "bridging"},
	} {
		if sites, err := Universe(bad[0], bad[1], 0, 1); err == nil {
			t.Errorf("Universe(%q, %q) = %d sites, want an error", bad[0], bad[1], len(sites))
		}
	}
}
