// Package export serializes experiment results to CSV so the figures can
// be re-plotted outside the text renderers (gnuplot, matplotlib, R). One
// file per artifact, columns matching the paper's axes.
package export

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/alert-project/alert/internal/experiment"
)

// writeCSV writes rows (first row = header) to w.
func writeCSV(w io.Writer, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func f(x float64) string {
	if math.IsNaN(x) {
		return ""
	}
	if math.IsInf(x, 1) {
		return "inf"
	}
	return fmt.Sprintf("%g", x)
}

// Fig2CSV emits one row per network: name, latency, error, energy, hull.
func Fig2CSV(w io.Writer, r *experiment.Fig2Result) error {
	rows := [][]string{{"model", "latency_s", "top5_error_pct", "energy_j", "on_hull"}}
	for _, row := range r.Rows {
		hull := "0"
		if row.OnHull {
			hull = "1"
		}
		rows = append(rows, []string{row.Name, f(row.Latency), f(row.ErrorPct), f(row.Energy), hull})
	}
	return writeCSV(w, rows)
}

// Fig3CSV emits one row per power setting.
func Fig3CSV(w io.Writer, r *experiment.Fig3Result) error {
	rows := [][]string{{"cap_w", "latency_s", "energy_per_period_j"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{f(row.CapW), f(row.Latency), f(row.Energy)})
	}
	return writeCSV(w, rows)
}

// Fig6CSV emits one row per constraint setting with the three oracles'
// energies ("inf" when infeasible).
func Fig6CSV(w io.Writer, r *experiment.Fig6Result) error {
	rows := [][]string{{"deadline_s", "accuracy_goal", "sys_level_j", "app_level_j", "combined_j"}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			f(p.Deadline), f(p.AccuracyGoal), f(p.SysOnly), f(p.AppOnly), f(p.Combined),
		})
	}
	return writeCSV(w, rows)
}

// Fig9CSV emits one row per (scheme, input).
func Fig9CSV(w io.Writer, r *experiment.Fig9Result) error {
	rows := [][]string{{"scheme", "input", "latency_s", "cap_w", "quality", "model", "anytime", "contention"}}
	for _, tr := range r.Traces {
		for _, s := range tr.Samples {
			b := func(v bool) string {
				if v {
					return "1"
				}
				return "0"
			}
			rows = append(rows, []string{
				tr.Scheme, fmt.Sprint(s.Input), f(s.Latency), f(s.CapW), f(s.Quality),
				s.ModelName, b(s.UsedAny), b(s.Contention),
			})
		}
	}
	return writeCSV(w, rows)
}

// Fig11CSV emits one row per histogram bin per scenario, plus the fit.
func Fig11CSV(w io.Writer, r *experiment.Fig11Result) error {
	rows := [][]string{{"scenario", "bin_lo", "freq", "mu_hat", "sigma_hat"}}
	for _, h := range r.Histograms {
		width := (h.Hi - h.Lo) / float64(len(h.Freq))
		for i, freq := range h.Freq {
			rows = append(rows, []string{
				h.Scenario.String(), f(h.Lo + float64(i)*width), f(freq), f(h.MuHat), f(h.SigmaHat),
			})
		}
	}
	return writeCSV(w, rows)
}

// WriteAll regenerates the CSV-exportable artifacts into dir.
func WriteAll(dir string, sc experiment.Scale) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, gen func(io.Writer) error) error {
		fh, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		defer fh.Close()
		if err := gen(fh); err != nil {
			return fmt.Errorf("export %s: %w", name, err)
		}
		return nil
	}

	fig2, err := experiment.RunFig2(sc)
	if err != nil {
		return err
	}
	if err := write("fig2.csv", func(w io.Writer) error { return Fig2CSV(w, fig2) }); err != nil {
		return err
	}
	fig3, err := experiment.RunFig3(sc)
	if err != nil {
		return err
	}
	if err := write("fig3.csv", func(w io.Writer) error { return Fig3CSV(w, fig3) }); err != nil {
		return err
	}
	fig6, err := experiment.RunFig6(sc)
	if err != nil {
		return err
	}
	if err := write("fig6.csv", func(w io.Writer) error { return Fig6CSV(w, fig6) }); err != nil {
		return err
	}
	fig9, err := experiment.RunFig9(sc)
	if err != nil {
		return err
	}
	if err := write("fig9.csv", func(w io.Writer) error { return Fig9CSV(w, fig9) }); err != nil {
		return err
	}
	fig11, err := experiment.RunFig11(sc)
	if err != nil {
		return err
	}
	if err := write("fig11.csv", func(w io.Writer) error { return Fig11CSV(w, fig11) }); err != nil {
		return err
	}
	return nil
}
