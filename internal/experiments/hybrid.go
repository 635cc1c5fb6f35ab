package experiments

import (
	"context"
	"fmt"

	"rcnvm/internal/config"
	"rcnvm/internal/sim"
	"rcnvm/internal/stats"
	"rcnvm/internal/tier"
	"rcnvm/internal/workload"
)

// HybridTierRows are the DRAM tier capacities of the hybrid sweep, in
// device rows (NVM rows are 8 KB, so 64/256/1024 rows = 0.5/2/8 MB of
// DRAM in front of the unchanged NVM device).
func HybridTierRows() []int { return []int{64, 256, 1024} }

// HybridRounds is how many times the OLXP transaction/scan sets repeat in
// the hybrid sweep: enough passes for K-miss promotion to trigger and for
// the DRAM tier to serve the later passes.
const HybridRounds = 4

// hybridBase scales a system's cache hierarchy down (32 KB L2, 128 KB
// shared L3) so the benchmark tables dwarf the LLC at every workload
// scale, as an in-memory database's working set dwarfs a real LLC.
// Identical on the baseline and on every hybrid variant, so each
// comparison isolates the tier.
func hybridBase(s config.System) config.System {
	s.Cache.L2Sets, s.Cache.L2Ways = 64, 8  // 32 KB private L2
	s.Cache.L3Sets, s.Cache.L3Ways = 256, 8 // 128 KB shared L3
	return s
}

// hybridSystems returns the sweep's systems: for each NVM device family
// (row-only RRAM, then dual-addressable RC-NVM) the plain baseline
// followed by hybrid variants at each DRAM capacity. The NVM device is
// identical within a family — the tier adds DRAM, it does not trade NVM
// capacity away. baseIdx[i] is the index of system i's own baseline, so
// speedups compare each hybrid against its own device family.
func hybridSystems() (systems []config.System, baseIdx []int) {
	for _, dev := range []config.System{config.RRAM(), config.RCNVM()} {
		base := hybridBase(dev)
		bi := len(systems)
		systems = append(systems, base)
		baseIdx = append(baseIdx, bi)
		for _, rows := range HybridTierRows() {
			s := base
			s.Tier = tier.Config{Rows: rows}
			s.Name = fmt.Sprintf("%s +%s", base.Name, hybridSizeLabel(rows))
			systems = append(systems, s)
			baseIdx = append(baseIdx, bi)
		}
	}
	return systems, baseIdx
}

func hybridSizeLabel(rows int) string {
	kb := rows * config.RCNVM().Device.Geom.RowBytes() / 1024
	if kb >= 1024 {
		return fmt.Sprintf("%dMB", kb/1024)
	}
	return fmt.Sprintf("%dKB", kb)
}

// HybridSweep is the hybrid-memory extension experiment: the sustained
// OLXP mix (concurrent OLTP point accesses and OLAP scans on one data
// copy) on plain NVM versus NVM fronted by a DRAM tier with
// row-buffer-locality-aware migration, for both device families.
//
// On row-only RRAM the OLTP hot set is scattered point traffic — every
// access re-activates a random row, the repeated-miss signature the tier
// promotes on — so DRAM absorbs it and the win is large. On RC-NVM the
// same hot set is served through column orientation and scans stream
// with high buffer locality, so there is little miss-heavy traffic left
// for DRAM to absorb: dual addressability already captured most of what
// a DRAM tier buys. The sweep quantifies both effects at equal NVM
// capacity.
//
// Every migration decision is a pure function of the access sequence, so
// parallel sweeps render byte-identically to sequential ones. workers
// bounds the parallel simulation cells (<= 0 means one per CPU).
func HybridSweep(scale Scale, workers int) (TableData, error) {
	p := ParamsFor(scale)
	t := TableData{
		ID:    "Hybrid",
		Title: "DRAM tier with locality-aware migration in front of NVM on the OLXP mix",
		XLabels: []string{"Mcycles", "speedup %", "buf miss %",
			"dram hits", "promotions", "demotions", "writebacks"},
	}
	systems, baseIdx := hybridSystems()
	results, err := Sweep(context.Background(), workers, len(systems), func(i int) (sim.Result, error) {
		res, err := workload.RunMixed(systems[i], p, HybridRounds)
		if err != nil {
			return sim.Result{}, fmt.Errorf("hybrid olxp on %s: %w", systems[i].Name, err)
		}
		return res, nil
	})
	if err != nil {
		return TableData{}, err
	}
	for si, sys := range systems {
		res := results[si]
		speedup := 0.0
		if mc := res.MCycles(); mc > 0 {
			speedup = (results[baseIdx[si]].MCycles()/mc - 1) * 100
		}
		t.Series = append(t.Series, Series{Label: sys.Name, Values: []float64{
			res.MCycles(),
			speedup,
			res.BufferMissRate() * 100,
			float64(res.Counters[stats.TierDRAMHits]),
			float64(res.Counters[stats.TierPromotions]),
			float64(res.Counters[stats.TierDemotions]),
			float64(res.Counters[stats.TierWritebacks]),
		}})
	}
	t.Notes = append(t.Notes,
		"speedup is vs the same device without the tier: equal NVM capacity, DRAM added in front",
		"policy: K=2 decayed row-buffer-miss counters promote; dirty demotions write back through the normal NVM path",
		"RRAM's scattered OLTP hot set is miss-heavy, so DRAM absorbs it; RC-NVM's dual addressing already serves it, leaving the tier a small residual win",
	)
	return t, nil
}
