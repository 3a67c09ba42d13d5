package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// CSV export: every experiment can dump its data series as plain CSV
// for external plotting, one file per figure/table.

func writeCSV(path string, header []string, rows [][]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		return err
	}
	if err := w.WriteAll(rows); err != nil {
		return err
	}
	w.Flush()
	return w.Error()
}

func fu(v uint64) string  { return strconv.FormatUint(v, 10) }
func ff(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }

// WriteFig9CSV dumps the latency curves.
func WriteFig9CSV(dir string, pts []Fig9Point) error {
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{
			strconv.Itoa(p.Bytes), fu(p.ReadCycles), fu(p.WriteCycles),
			ff(p.ReadMicros), ff(p.WriteMicros),
		})
	}
	return writeCSV(filepath.Join(dir, "fig9.csv"),
		[]string{"bytes", "read_cycles", "write_cycles", "read_us", "write_us"}, rows)
}

// WriteTable2CSV dumps the task-creation comparison.
func WriteTable2CSV(dir string, rowsIn []Table2Row) error {
	rows := make([][]string, 0, len(rowsIn))
	for _, r := range rowsIn {
		kind := "model"
		if r.Measured {
			kind = "measured"
		}
		paper := Table2Paper[r.System]
		rows = append(rows, []string{
			r.System, ff(r.SPARCCycles), ff(paper[0]), ff(r.XeonCycles), ff(paper[1]), kind,
		})
	}
	return writeCSV(filepath.Join(dir, "table2.csv"),
		[]string{"system", "sparc_cycles", "sparc_paper", "xeon_cycles", "xeon_paper", "kind"}, rows)
}

// WriteFig10CSV dumps a steal breakdown.
func WriteFig10CSV(dir, name string, b StealBreakdown) error {
	rows := [][]string{
		{"empty_check", ff(b.EmptyCheck)},
		{"lock", ff(b.Lock)},
		{"steal", ff(b.Steal)},
		{"suspend", ff(b.Suspend)},
		{"stack_transfer", ff(b.Transfer)},
		{"unlock", ff(b.Unlock)},
		{"resume", ff(b.Resume)},
		{"total", ff(b.Total())},
	}
	return writeCSV(filepath.Join(dir, name+".csv"), []string{"phase", "cycles"}, rows)
}

// WriteTable4CSV dumps the benchmark-footprint table.
func WriteTable4CSV(dir string, rowsIn []Table4Row) error {
	rows := make([][]string, 0, len(rowsIn))
	for _, r := range rowsIn {
		rows = append(rows, []string{
			r.Benchmark, r.Param, fu(r.Items), ff(r.Seconds), fu(r.StackBytes),
		})
	}
	return writeCSV(filepath.Join(dir, "table4.csv"),
		[]string{"benchmark", "param", "items", "sim_seconds", "stack_bytes"}, rows)
}

// WriteFig11CSV dumps one sub-figure's scaling curves.
func WriteFig11CSV(dir, fig string, curves []Fig11Curve) error {
	var rows [][]string
	for _, c := range curves {
		for _, p := range c.Points {
			rows = append(rows, []string{
				c.Label, strconv.Itoa(p.Workers), fu(p.Items),
				ff(p.Throughput.Mean()), ff(p.Throughput.CI95()),
				ff(p.Efficiency), ff(p.Steals),
			})
		}
	}
	return writeCSV(filepath.Join(dir, fig+".csv"),
		[]string{"series", "workers", "items", "throughput", "ci95", "efficiency", "steals"}, rows)
}

// EnsureWritableDir creates dir if needed and proves a file can be
// created inside it, so a long experiment fails before running rather
// than after when the output location is bad.
func EnsureWritableDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".writable-*")
	if err != nil {
		return fmt.Errorf("directory %s is not writable: %w", dir, err)
	}
	name := f.Name()
	f.Close()
	return os.Remove(name)
}

// FprintCSVNote tells the user where files landed.
func FprintCSVNote(w io.Writer, dir string) {
	if dir != "" {
		fmt.Fprintf(w, "(CSV written to %s)\n", dir)
	}
}
