package drivecycle

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV serialises the cycle as two columns, "time_s,speed_ms", with a
// header row.
func (c *Cycle) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "speed_ms"}); err != nil {
		return fmt.Errorf("drivecycle: write header: %w", err)
	}
	for i, v := range c.Speed {
		t := float64(i) * c.DT
		rec := []string{
			strconv.FormatFloat(t, 'g', -1, 64),
			strconv.FormatFloat(v, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("drivecycle: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
