package core

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sbst"
	"repro/internal/soc"
)

// DataWindow is core id's routine data window in system SRAM: 8 KiB per
// core, above the first 8 KiB.
func DataWindow(id int) uint32 { return mem.SRAMBase + 0x2000*uint32(id+1) }

// SoCConfig is the default SoC configuration with every core's caches on
// (write-allocate) when cached and off otherwise. Which cores are active
// follows from the jobs a run is given (see RunJobs).
func SoCConfig(cached bool) soc.Config {
	cfg := soc.DefaultConfig()
	for id := range cfg.Cores {
		cfg.Cores[id].CachesOn = cached
		cfg.Cores[id].WriteAlloc = true
	}
	return cfg
}

// PlacedJobs builds a code-placement scenario of the paper: cores
// 0..active-1 plus the core under test are active (active = 0 runs the core
// under test alone), every one running the named routine from its own
// DataWindow, plain or — when cached — cache-based with write-allocate
// under SoCConfig(cached). The routine is a library routine (see
// sbst.NewRoutineByName) or "stl", the generic standard test library
// (sbst.StandardSTL).
//
// The placement rule: the core under test sits at flash position pos with
// pad bytes of alignment padding; each other core, in id order, takes the
// next position of soc.CodePositions other than pos, offset by 0x10000
// within that position's bank. NewCampaign turns the result into a
// campaign.
func PlacedJobs(routine string, underTest, active int, pos, pad uint32, cached bool) (soc.Config, [soc.NumCores]*CoreJob, error) {
	var jobs [soc.NumCores]*CoreJob
	if underTest < 0 || underTest >= soc.NumCores || active < 0 || active > soc.NumCores {
		return soc.Config{}, jobs, fmt.Errorf("bad placement: core %d with %d active", underTest, active)
	}
	var strat Strategy = Plain{}
	if cached {
		strat = CacheBased{WriteAllocate: true}
	}
	slot := 0
	for id := 0; id < soc.NumCores; id++ {
		if id >= active && id != underTest {
			continue
		}
		job := &CoreJob{Strategy: strat, CodeBase: pos, AlignPad: pad}
		if routine == "stl" {
			job.Routines = sbst.StandardSTL(DataWindow(id))
		} else {
			r, err := sbst.NewRoutineByName(routine, sbst.RoutineOptions{
				DataBase:    DataWindow(id),
				CoreID:      id,
				TriggerReps: 2, // keep ICU routines short for fault grading
			})
			if err != nil {
				return soc.Config{}, jobs, err
			}
			job.Routine = r
		}
		if id != underTest {
			if soc.CodePositions[slot] == pos {
				slot++
			}
			job.CodeBase, job.AlignPad = soc.CodePositions[slot]+0x10000, 0
			slot++
		}
		jobs[id] = job
	}
	return SoCConfig(cached), jobs, nil
}
