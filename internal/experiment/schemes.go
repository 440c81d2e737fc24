package experiment

import (
	"fmt"

	"github.com/alert-project/alert/internal/baselines"
	"github.com/alert-project/alert/internal/core"
	"github.com/alert-project/alert/internal/dnn"
	"github.com/alert-project/alert/internal/platform"
	"github.com/alert-project/alert/internal/runner"
)

// Scheme identifiers, matching Table 3's roster.
const (
	SchemeALERT     = "ALERT"
	SchemeALERTAny  = "ALERT-Any"
	SchemeALERTTrad = "ALERT-Trad"
	SchemeALERTStar = "ALERT*"
	SchemeSysOnly   = "Sys-only"
	SchemeAppOnly   = "App-only"
	SchemeNoCoord   = "No-coord"
	SchemeOracle    = "Oracle"
	SchemeOracleSt  = "OracleStatic"
)

// Table4Schemes is the roster evaluated per cell (OracleStatic is the
// normalization baseline and runs implicitly).
var Table4Schemes = []string{
	SchemeALERT, SchemeALERTAny, SchemeALERTTrad, SchemeALERTStar,
	SchemeSysOnly, SchemeAppOnly, SchemeNoCoord, SchemeOracle,
}

// Profiles bundles the three candidate-set profiles a cell needs: the full
// traditional+anytime set ALERT uses, the anytime-only set shared by
// ALERT-Any / App-only / No-coord, and the traditional-only set of
// ALERT-Trad.
type Profiles struct {
	Full, Any, Trad *dnn.ProfileTable
}

// BuildProfiles profiles the evaluation candidate sets for a task on a
// platform.
func BuildProfiles(p *platform.Platform, task dnn.Task) (*Profiles, error) {
	full := dnn.CandidatesFor(task)
	fullProf, err := dnn.Profile(p, full)
	if err != nil {
		return nil, err
	}
	anyProf, err := dnn.Profile(p, dnn.Anytime(full))
	if err != nil {
		return nil, err
	}
	tradProf, err := dnn.Profile(p, dnn.Traditional(full))
	if err != nil {
		return nil, err
	}
	return &Profiles{Full: fullProf, Any: anyProf, Trad: tradProf}, nil
}

// newScheme constructs a scheduler by name together with the profile table
// it runs over. reference is the differential-testing knob: it routes every ALERT-variant controller through the naive scorer
// (core.Options.ReferenceScorer), which must not change any grid number.
func newScheme(id string, profs *Profiles, spec core.Spec, reference bool) (runner.Scheduler, *dnn.ProfileTable, error) {
	opts := core.DefaultOptions()
	opts.ReferenceScorer = reference
	switch id {
	case SchemeALERT:
		return baselines.NewAlert(id, profs.Full, spec, opts), profs.Full, nil
	case SchemeALERTAny:
		return baselines.NewAlert(id, profs.Any, spec, opts), profs.Any, nil
	case SchemeALERTTrad:
		return baselines.NewAlert(id, profs.Trad, spec, opts), profs.Trad, nil
	case SchemeALERTStar:
		opts.UseVariance = false
		return baselines.NewAlert(id, profs.Full, spec, opts), profs.Full, nil
	case SchemeSysOnly:
		return baselines.NewSysOnly(profs.Full, spec), profs.Full, nil
	case SchemeAppOnly:
		return baselines.NewAppOnly(profs.Any), profs.Any, nil
	case SchemeNoCoord:
		return baselines.NewNoCoord(profs.Any, spec), profs.Any, nil
	case SchemeOracle:
		return baselines.NewOracle(spec), profs.Full, nil
	default:
		return nil, nil, fmt.Errorf("experiment: unknown scheme %q", id)
	}
}
