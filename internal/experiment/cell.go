package experiment

import (
	"sync"

	"github.com/alert-project/alert/internal/baselines"
	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/metrics"
	"github.com/alert-project/alert/internal/platform"
	"github.com/alert-project/alert/internal/runner"
	"github.com/alert-project/alert/internal/scenario"
)

// CellKey identifies one Table 4 cell: a platform, a task (DNN family), and
// a contention scenario.
type CellKey struct {
	Platform string
	Task     dnn.Task
	Scenario contention.Scenario
}

// Workload returns the Table 4 row label for the scenario ("Idle" is the
// paper's name for the Default environment in that table).
func (k CellKey) Workload() string {
	if k.Scenario == contention.Default {
		return "Idle"
	}
	return k.Scenario.String()
}

// Family returns the Table 4 DNN-column label.
func (k CellKey) Family() string {
	if k.Task == dnn.SentencePrediction {
		return "RNN"
	}
	return "SparseResnet"
}

// Cell is the result of running the full roster over one constraint grid.
type Cell struct {
	Key       CellKey
	Objective core.Objective
	// Norm maps scheme name to its Table 4 cell (normalized average +
	// violated-setting superscript).
	Norm map[string]metrics.CellResult
	// PerSetting keeps the raw per-setting aggregates per scheme
	// (including OracleStatic), backing Figures 8 and 10.
	PerSetting map[string][]metrics.SettingResult
	// Settings echoes the constraint grid that was run.
	Settings []Setting
}

// CellOptions tune a cell run.
type CellOptions struct {
	// Schemes defaults to Table4Schemes.
	Schemes []string
	// Scenario, when non-empty, names a built-in environment scenario
	// (internal/scenario). Every setting then runs against a trace of that
	// scenario compiled for the setting's deadline and seed — the scenario
	// dimension of the grid — instead of the stock CellKey.Scenario
	// co-runner source, and the trace's spec churn applies. CellKey.Scenario
	// still sets the grid's achievability margin.
	Scenario string
	// ReferenceScorer runs every ALERT-variant controller with the naive
	// pre-optimization scorer instead of the fast path. Grid results are
	// identical either way — the differential tests pin it — so this is a
	// testing/debugging knob only.
	ReferenceScorer bool
}

// RunCell executes one Table 4 cell: for every constraint setting in the
// grid it finds the OracleStatic baseline by exhaustive static search, runs
// every scheme over the identical environment draws, and normalizes.
func RunCell(key CellKey, obj core.Objective, sc Scale, opt CellOptions) (*Cell, error) {
	plat, err := platform.ByName(key.Platform)
	if err != nil {
		return nil, err
	}
	profs, err := BuildProfiles(plat, key.Task)
	if err != nil {
		return nil, err
	}
	schemes := opt.Schemes
	if schemes == nil {
		schemes = Table4Schemes
	}
	var scenSpec scenario.Spec
	if opt.Scenario != "" {
		if scenSpec, err = scenario.ByName(opt.Scenario); err != nil {
			return nil, err
		}
	}

	grid := GridFor(obj, profs.Full, key.Scenario, sc)
	cell := &Cell{
		Key:        key,
		Objective:  obj,
		Norm:       make(map[string]metrics.CellResult, len(schemes)),
		PerSetting: make(map[string][]metrics.SettingResult, len(schemes)+1),
		Settings:   grid,
	}

	// Every grid setting is an independent simulation with its own derived
	// seed, so the settings can run on as many goroutines as sc.Parallelism
	// asks for. Results land in per-setting slots indexed by si and are
	// assembled in grid order below, keeping the cell byte-identical to a
	// serial run at any parallelism.
	// Each setting's per-input samples become garbage as soon as the
	// setting aggregates, keeping peak memory at O(schemes) records.
	type settingOut struct {
		results map[string]metrics.SettingResult
		err     error
	}
	outs := make([]settingOut, len(grid))
	runSetting := func(si int) settingOut {
		setting := grid[si]
		seed := sc.Seed + int64(si)*9973
		baseCfg := runner.Config{
			Prof:      profs.Full,
			Scenario:  key.Scenario,
			Spec:      setting.Spec,
			NumInputs: sc.Inputs,
			Seed:      seed,
		}
		out := settingOut{results: make(map[string]metrics.SettingResult, len(schemes)+1)}
		if opt.Scenario != "" {
			// One trace per setting, shared by every scheme: the scenario
			// dimension stays apples-to-apples across the roster.
			tr, err := scenario.Compile(scenSpec, plat, sc.Inputs, setting.Spec.Deadline, seed)
			if err != nil {
				out.err = err
				return out
			}
			baseCfg.Trace = tr
		}
		out.results[SchemeOracleSt] = settingResult(SchemeOracleSt, baselines.OracleStatic(baseCfg).Record)
		for _, id := range schemes {
			sched, prof, err := newScheme(id, profs, setting.Spec, opt.ReferenceScorer)
			if err != nil {
				out.err = err
				return out
			}
			cfg := baseCfg
			cfg.Prof = prof
			out.results[id] = settingResult(id, runner.Run(cfg, sched, nil))
		}
		return out
	}

	if workers := min(sc.Parallelism, len(grid)); workers > 1 {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for si := range next {
					outs[si] = runSetting(si)
				}
			}()
		}
		for si := range grid {
			next <- si
		}
		close(next)
		wg.Wait()
	} else {
		for si := range grid {
			outs[si] = runSetting(si)
		}
	}

	for _, out := range outs {
		if out.err != nil {
			return nil, out.err
		}
		for _, id := range append([]string{SchemeOracleSt}, schemes...) {
			cell.PerSetting[id] = append(cell.PerSetting[id], out.results[id])
		}
	}

	for _, id := range schemes {
		cell.Norm[id] = metrics.Normalize(cell.PerSetting[id], cell.PerSetting[SchemeOracleSt],
			obj == core.MinimizeEnergy)
	}
	return cell, nil
}

func settingResult(scheme string, rec *metrics.Record) metrics.SettingResult {
	return metrics.SettingResult{
		Scheme:        scheme,
		AvgEnergy:     rec.AvgEnergy(),
		AvgError:      rec.AvgError(),
		Violated:      rec.SettingViolated(),
		ViolationRate: rec.ViolationRate(),
		MissRate:      rec.DeadlineMissRate(),
	}
}
