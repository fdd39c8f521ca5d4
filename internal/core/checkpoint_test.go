package core

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/soc"
)

// TestArenaCheckpointRestoreMatchesSteppedSoC is the checkpoint-equivalence
// pin, the restore-side counterpart of TestArenaResetMatchesFreshSoC: across
// cached/uncached and 1-3-core replay environments, every golden checkpoint
// the arena captured is bit-identical to a fresh SoC stepped to the same
// cycle, a Restore of it round-trips through Snapshot unchanged, and a run
// continued from the restore point finishes with the golden signature. This
// also pins that the activation probe (an identity plane installed during
// capture) does not perturb golden state: the stepped reference runs with
// fault.None, not the probe.
func TestArenaCheckpointRestoreMatchesSteppedSoC(t *testing.T) {
	for _, cached := range []bool{false, true} {
		for active := 1; active <= soc.NumCores; active++ {
			replayCfg, job, budget := arenaEnv(t, active, cached)
			a, err := NewArena(replayCfg, 0, job, budget,
				ArenaOptions{CheckpointInterval: 512})
			if err != nil {
				t.Fatal(err)
			}
			if a.Stats().Checkpoints == 0 {
				t.Fatalf("cached=%v active=%d: no checkpoints captured", cached, active)
			}
			s := a.SoC()
			for i := range a.ckpts {
				ck := &a.ckpts[i]
				s.Reset()
				s.SetPlane(0, fault.None)
				s.Start(0, a.entry)
				for s.Cycle() < ck.cycle {
					s.Step()
				}
				stepped := s.Snapshot()
				if !reflect.DeepEqual(stepped, ck.state) {
					t.Fatalf("cached=%v active=%d: checkpoint %d (cycle %d) differs from fresh SoC stepped there",
						cached, active, i, ck.cycle)
				}
				s.Restore(ck.state)
				if restored := s.Snapshot(); !reflect.DeepEqual(restored, ck.state) {
					t.Fatalf("cached=%v active=%d: restore of checkpoint %d (cycle %d) does not round-trip",
						cached, active, i, ck.cycle)
				}
			}

			// A run continued from the last restore point (left in place by
			// the loop above) finishes as the golden run.
			for s.Cycle() < budget && !s.Done() {
				s.Step()
			}
			if !s.Done() {
				t.Fatalf("cached=%v active=%d: restored continuation exhausted the budget", cached, active)
			}
			if sig := s.Cores[0].Core.Reg(isa.RegSig); sig != a.goldenRes.Signature {
				t.Errorf("cached=%v active=%d: restored continuation signature %08x, golden %08x",
					cached, active, sig, a.goldenRes.Signature)
			}

			// The arena itself is unscathed by the manual stepping: it still
			// serves the exact golden verdict.
			if sig, ok := a.Run(fault.None); sig != a.goldenRes.Signature || !ok {
				t.Errorf("cached=%v active=%d: arena golden after restores %08x ok=%v",
					cached, active, sig, ok)
			}
		}
	}
}

// TestArenaCheckpointedTransitionRunsMatchFreshSoC pins the checkpointed
// fast path against rebuild-per-fault semantics: for a sample of transition sites, a
// checkpointed arena run (golden-served, checkpoint-restored or fully
// replayed) must reproduce the verdict of a freshly built SoC
// simulating the same fault with the full budget.
func TestArenaCheckpointedTransitionRunsMatchFreshSoC(t *testing.T) {
	replayCfg, job, budget := arenaEnv(t, 2, false)
	sites := fault.TransitionFaults(fault.ListOptions{DataBits: 32, BitStep: 4})
	fault.SortSites(sites)
	sites = fault.Sample(sites, 11)

	a, err := NewArena(replayCfg, 0, job, budget, ArenaOptions{CheckpointInterval: 256})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats().Checkpoints == 0 {
		t.Fatal("no checkpoints captured")
	}
	for _, site := range sites {
		fresh, _ := freshRun(t, replayCfg, job, budget, fault.PlaneFor(site))
		sig, ok := a.Run(fault.PlaneFor(site))
		if ok != fresh.OK {
			t.Errorf("%v: arena ok=%v, fresh ok=%v", site, ok, fresh.OK)
			continue
		}
		if ok && sig != fresh.Signature {
			t.Errorf("%v: arena signature %08x, fresh %08x", site, sig, fresh.Signature)
		}
	}
	shortcuts := func() int64 { st := a.Stats(); return st.CheckpointRuns + st.GoldenServed }
	if shortcuts() == 0 {
		t.Error("checkpoint fast path never engaged across the sample")
	}

	// Stuck-at sites always take the full replay: the checkpointed arena
	// must serve them exactly as the plain arena tests pin.
	stuck := fault.Site{Unit: fault.UnitFwd, Signal: fault.SigMuxData,
		Lane: 0, Operand: 0, Path: fault.PathEXL0, Bit: 31, Stuck: 1}
	before := shortcuts()
	fresh, _ := freshRun(t, replayCfg, job, budget, fault.PlaneFor(stuck))
	sig, ok := a.Run(fault.PlaneFor(stuck))
	if ok != fresh.OK || (ok && sig != fresh.Signature) {
		t.Errorf("stuck-at on checkpointed arena (%08x, %v) != fresh (%08x, %v)",
			sig, ok, fresh.Signature, fresh.OK)
	}
	if shortcuts() != before {
		t.Error("stuck-at site took the checkpoint fast path")
	}
}
