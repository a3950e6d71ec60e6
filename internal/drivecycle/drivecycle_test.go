package drivecycle

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/units"
)

// published holds the EPA-published statistics each synthetic cycle must
// approximate (duration s, distance km, avg speed km/h, max speed km/h).
var published = map[string]struct {
	duration float64
	distance float64
	avgKmh   float64
	maxKmh   float64
}{
	"US06":  {600, 12.89, 77.9, 129.2},
	"UDDS":  {1369, 12.07, 31.5, 91.2},
	"HWFET": {765, 16.45, 77.7, 96.4},
	"NYCC":  {598, 1.90, 11.4, 44.6},
	"LA92":  {1435, 15.80, 39.6, 108.1},
	"SC03":  {596, 5.76, 34.8, 88.2},
}

func TestStandardCyclesMatchPublishedStats(t *testing.T) {
	const tol = 0.20 // ±20 % on every headline statistic
	for name, want := range published {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s := c.Stats()
		check := func(metric string, got, want float64) {
			if math.Abs(got-want) > tol*want {
				t.Errorf("%s %s = %.1f, want %.1f ±20%%", name, metric, got, want)
			}
		}
		check("duration", s.Duration, want.duration)
		check("distance", s.Distance/1000, want.distance)
		check("avg speed", units.MsToKmh(s.AvgSpeed), want.avgKmh)
		check("max speed", units.MsToKmh(s.MaxSpeed), want.maxKmh)
	}
}

func TestUS06MoreAggressiveThanUDDS(t *testing.T) {
	us06 := US06().Stats()
	udds := UDDS().Stats()
	if us06.RMSAccel <= udds.RMSAccel {
		t.Errorf("US06 RMS accel %v should exceed UDDS %v", us06.RMSAccel, udds.RMSAccel)
	}
	if us06.MaxAccel <= udds.MaxAccel {
		t.Errorf("US06 max accel %v should exceed UDDS %v", us06.MaxAccel, udds.MaxAccel)
	}
	if us06.AvgSpeed <= udds.AvgSpeed {
		t.Error("US06 should be faster on average than UDDS")
	}
}

func TestNYCCIsStopAndGo(t *testing.T) {
	s := NYCC().Stats()
	if s.StopFraction < 0.25 {
		t.Errorf("NYCC stop fraction = %v, want dense stops", s.StopFraction)
	}
	if h := HWFET().Stats(); h.StopFraction > 0.05 {
		t.Errorf("HWFET stop fraction = %v, want nearly none", h.StopFraction)
	}
}

func TestCyclesStartAndEndStopped(t *testing.T) {
	for _, c := range MustAll() {
		if c.Speed[0] != 0 {
			t.Errorf("%s starts at %v m/s, want 0", c.Name, c.Speed[0])
		}
		if last := c.Speed[len(c.Speed)-1]; last > 0.5 {
			t.Errorf("%s ends at %v m/s, want standstill", c.Name, last)
		}
	}
}

func TestCyclesNonNegativeAndBounded(t *testing.T) {
	for _, c := range MustAll() {
		for i, v := range c.Speed {
			if v < 0 {
				t.Fatalf("%s sample %d negative: %v", c.Name, i, v)
			}
			if v > units.KmhToMs(140) {
				t.Fatalf("%s sample %d implausible: %v m/s", c.Name, i, v)
			}
		}
	}
}

func TestCycleAccelerationsPhysical(t *testing.T) {
	for _, c := range MustAll() {
		s := c.Stats()
		if s.MaxAccel > 4.0 {
			t.Errorf("%s max accel %v m/s² beyond passenger-car limits", c.Name, s.MaxAccel)
		}
		if s.MaxDecel > 4.5 {
			t.Errorf("%s max decel %v m/s² beyond comfort braking", c.Name, s.MaxDecel)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("MOONCYCLE"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != 6 {
		t.Fatalf("Names() = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names not sorted: %v", names)
		}
	}
	for _, n := range names {
		if _, err := ByName(n); err != nil {
			t.Errorf("ByName(%q): %v", n, err)
		}
	}
}

func TestRepeat(t *testing.T) {
	c := US06()
	r := c.Repeat(5)
	if r.Samples() != 5*c.Samples() {
		t.Errorf("Repeat(5) samples = %d, want %d", r.Samples(), 5*c.Samples())
	}
	if !strings.Contains(r.Name, "x5") {
		t.Errorf("Repeat name = %q", r.Name)
	}
	// Statistics like avg speed must be unchanged by repetition.
	if math.Abs(r.Stats().AvgSpeed-c.Stats().AvgSpeed) > 1e-9 {
		t.Error("Repeat changed average speed")
	}
}

func TestRepeatPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Repeat(0) did not panic")
		}
	}()
	US06().Repeat(0)
}

func TestCSVRoundTrip(t *testing.T) {
	c := SC03()
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != c.Samples()+1 || rows[0][0] != "time_s" || rows[0][1] != "speed_ms" {
		t.Fatalf("round trip: %d rows, header %v; want %d rows after a time_s,speed_ms header", len(rows), rows[0], c.Samples()+1)
	}
	for i, v := range c.Speed {
		ts, err1 := strconv.ParseFloat(rows[i+1][0], 64)
		got, err2 := strconv.ParseFloat(rows[i+1][1], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("row %d: %v %v", i+1, err1, err2)
		}
		if ts != float64(i)*c.DT || got != v {
			t.Fatalf("row %d: (%v, %v), want (%v, %v)", i+1, ts, got, float64(i)*c.DT, v)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, err := Synthesize(DefaultSynthConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(DefaultSynthConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Samples() != b.Samples() {
		t.Fatal("same seed, different lengths")
	}
	for i := range a.Speed {
		if a.Speed[i] != b.Speed[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	c, err := Synthesize(DefaultSynthConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	same := a.Samples() == c.Samples()
	if same {
		diff := false
		for i := range a.Speed {
			if a.Speed[i] != c.Speed[i] {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds produced identical cycles")
	}
}

func TestSynthesizeRespectsConfig(t *testing.T) {
	cfg := DefaultSynthConfig(7)
	cfg.TargetDuration = 600
	c, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if math.Abs(s.Duration-600) > 120 {
		t.Errorf("duration %v, want ≈600", s.Duration)
	}
	if s.MaxAccel > cfg.MaxAccel+1e-6 {
		t.Errorf("max accel %v exceeds configured %v", s.MaxAccel, cfg.MaxAccel)
	}
	if last := c.Speed[len(c.Speed)-1]; last != 0 {
		t.Errorf("synthetic cycle ends at %v, want 0", last)
	}
}

func TestSynthesizeValidation(t *testing.T) {
	bad := DefaultSynthConfig(1)
	bad.TargetDuration = -5
	if _, err := Synthesize(bad); err == nil {
		t.Error("negative duration accepted")
	}
	bad = DefaultSynthConfig(1)
	bad.PeakJitter = 1.5
	if _, err := Synthesize(bad); err == nil {
		t.Error("jitter >= 1 accepted")
	}
}

func TestStatsEmptyCycle(t *testing.T) {
	c := &Cycle{Name: "empty", DT: 1}
	s := c.Stats()
	if s.Duration != 0 || s.Distance != 0 || s.MaxSpeed != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

// publishedExtra holds the statistics of the non-EPA cycles.
var publishedExtra = map[string]struct {
	duration float64
	distance float64
	avgKmh   float64
	maxKmh   float64
}{
	"WLTC3":         {1800, 23.27, 46.5, 131.3},
	"JC08":          {1204, 8.17, 24.4, 81.6},
	"ARTEMIS-URBAN": {993, 4.87, 17.7, 57.3},
}

func TestExtraCyclesMatchPublishedStats(t *testing.T) {
	const tol = 0.22
	for name, want := range publishedExtra {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s := c.Stats()
		check := func(metric string, got, wantV float64) {
			if math.Abs(got-wantV) > tol*wantV {
				t.Errorf("%s %s = %.1f, want %.1f ±22%%", name, metric, got, wantV)
			}
		}
		check("duration", s.Duration, want.duration)
		check("distance", s.Distance/1000, want.distance)
		check("avg speed", units.MsToKmh(s.AvgSpeed), want.avgKmh)
		check("max speed", units.MsToKmh(s.MaxSpeed), want.maxKmh)
	}
}

func TestAllNamesSuperset(t *testing.T) {
	all := AllNames()
	if len(all) != len(Names())+3 {
		t.Fatalf("AllNames() = %v", all)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Errorf("AllNames not sorted: %v", all)
		}
	}
	for _, n := range all {
		if _, err := ByName(n); err != nil {
			t.Errorf("ByName(%q): %v", n, err)
		}
	}
}
