package core_test

import (
	"fmt"
	"testing"

	"easydram/internal/core"
	"easydram/internal/difffuzz"
	"easydram/internal/smc"
	"easydram/internal/workload"
)

// runCheckingKeys runs cfg's system over strms with the merge key-cache
// check armed and fails the test on any mismatch.
func runCheckingKeys(t *testing.T, cfg core.Config, strms []workload.Stream) {
	t.Helper()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, picks, err := core.RunStreamsCheckingKeys(sys, strms)
	if err != nil {
		t.Fatal(err)
	}
	if picks == 0 {
		t.Fatal("the merge made no checked pick")
	}
}

// TestMergeKeyCacheFairnessGrid checks the merge's cached keys against
// fresh ones at every pick over the fairness grid (FR-FCFS and BLISS, every
// mix, 2 and 4 cores) on streams cut short at 20,000 instructions per core.
func TestMergeKeyCacheFairnessGrid(t *testing.T) {
	for _, sched := range []string{"fr-fcfs", "bliss"} {
		for _, mix := range workload.Mixes() {
			for _, cores := range []int{2, 4} {
				cfg := core.TimeScalingA57()
				cfg.Cores = cores
				cfg.CPU.MaxInstructions = 20000
				cfg.Scheduler = smc.FRFCFS{}
				if sched == "bliss" {
					cfg.Scheduler = smc.NewBLISS()
				}
				strms := mix.Streams(cores)
				t.Run(fmt.Sprintf("%s/%s/%dcores", sched, mix.Name, cores), func(t *testing.T) {
					runCheckingKeys(t, cfg, strms)
				})
			}
		}
	}
}

// TestMergeKeyCacheDifffuzzCases runs the same check over the multi-core
// cases of the differential fuzzer's pinned seed range, which reach the
// unscaled merge, several channels and ranks, refresh and faults.
func TestMergeKeyCacheDifffuzzCases(t *testing.T) {
	checked := 0
	for seed := uint64(0); seed < 256; seed++ {
		c := difffuzz.Decode(seed)
		if c.Cores <= 1 {
			continue
		}
		checked++
		cfg, err := c.SystemConfig()
		if err != nil {
			t.Fatal(err)
		}
		k, err := c.Workload()
		if err != nil {
			t.Fatal(err)
		}
		strms := make([]workload.Stream, cfg.Cores)
		for i := range strms {
			strms[i] = workload.OffsetStream(k.Stream(), uint64(i)*workload.MixWindowBytes)
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runCheckingKeys(t, cfg, strms) })
	}
	if checked == 0 {
		t.Fatal("no pinned seed armed the multi-core axis")
	}
}
