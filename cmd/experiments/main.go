// Command experiments regenerates every table and figure of the paper's
// evaluation. Each experiment prints its result as an aligned text table
// whose rows mirror the published artifact; EXPERIMENTS.md records the
// full-scale output at seed 42.
//
// Usage:
//
//	experiments -exp all            # everything, full scale (about 28 s on 2 vCPUs)
//	experiments -exp fig3,fig9      # a subset
//	experiments -exp table4 -quick  # reduced grid for a fast look
//	experiments -exp table4 -parallel 8   # 8 settings per cell at once
//	experiments -exp scenario -scenario phased,thermal  # dynamic environments
//	experiments -exp fig3,fig9 -csv out   # also write out/fig3.csv and out/fig9.csv
//
// -csv writes one <id>.csv per printed table (fig10 prints two:
// fig10-Default and fig10-Memory) from the same values the text shows, at
// full precision; nothing is run twice.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/alert-project/alert/internal/contention"
	"github.com/alert-project/alert/internal/experiment"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// tabler is every experiment result: it lays itself out as one Table.
type tabler interface{ Table() *experiment.Table }

// run is main with injectable arguments and output, so the CLI is testable
// end-to-end without a subprocess.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	exps := fs.String("exp", "all", "comma-separated experiment ids: fig2,fig3,fig4,fig5,fig6,fig7,fig8,fig9,fig10,fig11,table4,table5,scenario or all")
	quick := fs.Bool("quick", false, "use the reduced grid (faster, noisier)")
	scenarios := fs.String("scenario", "all",
		"comma-separated environment scenarios for -exp scenario (see internal/scenario; all = every built-in)")
	seed := fs.Int64("seed", 42, "experiment seed")
	csvDir := fs.String("csv", "", "also write each printed table as <id>.csv into this directory")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"constraint settings run concurrently per cell (results are seed-deterministic at any value; 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sc := experiment.FullScale()
	if *quick {
		sc = experiment.QuickScale()
	}
	sc.Seed = *seed
	sc.Parallelism = *parallel

	// Table 4 feeds Figure 7: whichever asks first runs it, once.
	var t4 *experiment.Table4
	table4 := func() (*experiment.Table4, error) {
		var err error
		if t4 == nil {
			t4, err = experiment.RunTable4(sc, experiment.CellOptions{})
		}
		return t4, err
	}
	one := func(r tabler, err error) ([]tabler, error) { return []tabler{r}, err }
	experiments := []struct {
		id  string
		run func() ([]tabler, error)
	}{
		{"fig2", func() ([]tabler, error) { return one(experiment.RunFig2(sc)) }},
		{"fig3", func() ([]tabler, error) { return one(experiment.RunFig3(sc)) }},
		{"fig4", func() ([]tabler, error) { return one(experiment.RunFigVariance(false, sc)) }},
		{"fig5", func() ([]tabler, error) { return one(experiment.RunFigVariance(true, sc)) }},
		{"fig6", func() ([]tabler, error) { return one(experiment.RunFig6(sc)) }},
		{"table4", func() ([]tabler, error) { return one(table4()) }},
		{"fig7", func() ([]tabler, error) {
			t, err := table4()
			if err != nil {
				return nil, err
			}
			return one(experiment.Fig7(t), nil)
		}},
		{"table5", func() ([]tabler, error) { return one(experiment.RunTable5(sc)) }},
		{"fig8", func() ([]tabler, error) { return one(experiment.RunFig8(sc)) }},
		{"fig9", func() ([]tabler, error) { return one(experiment.RunFig9(sc)) }},
		{"fig10", func() ([]tabler, error) {
			var out []tabler
			for _, scenario := range []contention.Scenario{contention.Default, contention.Memory} {
				r, err := experiment.RunFig10(scenario, sc)
				if err != nil {
					return nil, err
				}
				out = append(out, r)
			}
			return out, nil
		}},
		{"fig11", func() ([]tabler, error) { return one(experiment.RunFig11(sc)) }},
		{"scenario", func() ([]tabler, error) {
			var names []string // nil = every built-in
			if s := strings.TrimSpace(strings.ToLower(*scenarios)); s != "" && s != "all" {
				names = strings.Split(s, ",")
				for i := range names {
					names[i] = strings.TrimSpace(names[i])
				}
			}
			return one(experiment.RunScenarioSweep(names, sc))
		}},
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*exps, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		known := id == "all"
		for _, e := range experiments {
			known = known || e.id == id
		}
		if !known {
			return fmt.Errorf("unknown experiment id %q", id)
		}
		want[id] = true
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	for _, e := range experiments {
		if !want["all"] && !want[e.id] {
			continue
		}
		start := time.Now()
		results, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		elapsed := time.Since(start).Seconds()
		for _, r := range results {
			t := r.Table()
			fmt.Fprintf(stdout, "==== %s (%.1fs) ====\n", t.ID, elapsed)
			if err := t.WriteText(stdout); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
			if *csvDir != "" {
				if err := writeCSV(filepath.Join(*csvDir, t.ID+".csv"), t); err != nil {
					return err
				}
			}
		}
	}
	if *csvDir != "" {
		fmt.Fprintf(stdout, "CSV artifacts written to %s\n", *csvDir)
	}
	return nil
}

func writeCSV(path string, t *experiment.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
