package fleet

import (
	"math/rand"

	"repro/internal/drivecycle"
)

// This file draws per-vehicle scenarios: a usage class (which shapes the
// synthesized drive cycle), a climate band (which sets the ambient and the
// HVAC load) and a day-by-day plug sequence from the EV plug-state model
// (0 unplugged, 1 plugged-and-charging, 2 on vacation, 3 plugged ahead of
// a vacation — the residential-EMS state machine the roadmap points at).
// All randomness flows through a per-vehicle *rand.Rand seeded from
// (fleet seed, vehicle index) with a SplitMix64 mix, so vehicle i's
// scenario is a pure function of the spec — the property the detflow lint
// rule enforces and the parallelism-identity test replays.

// vehicleSeed derives a well-mixed, collision-resistant seed for one
// vehicle from the fleet seed — SplitMix64's finalizer, the standard way
// to fan one seed out into decorrelated streams.
func vehicleSeed(fleetSeed int64, vehicle int) int64 {
	z := uint64(fleetSeed) + 0x9e3779b97f4a7c15*uint64(vehicle+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// UsageClass names a driving pattern; it is half of a scenario family.
type UsageClass string

// The three usage classes of the fleet model, in sampling order.
const (
	// UsageCommuter is a suburban commute: moderate speeds, few stops.
	UsageCommuter UsageClass = "commuter"
	// UsageDelivery is urban stop-and-go: low speeds, dense stops.
	UsageDelivery UsageClass = "delivery"
	// UsageHighway is sustained high speed with rare stops.
	UsageHighway UsageClass = "highway"
)

// ClimateBand names an ambient-temperature band; the other half of a
// scenario family.
type ClimateBand string

// The three climate bands, in sampling order, with their kelvin ranges.
const (
	// ClimateCold spans 265–280 K (−8…7 °C): cabin heating load.
	ClimateCold ClimateBand = "cold"
	// ClimateTemperate spans 285–298 K (12…25 °C): light HVAC.
	ClimateTemperate ClimateBand = "temperate"
	// ClimateHot spans 300–313 K (27…40 °C): heavy A/C and hot packs.
	ClimateHot ClimateBand = "hot"
)

// dayKind is one day of a vehicle's plug sequence (snippet-3 plug states).
type dayKind uint8

const (
	dayUnplugged   dayKind = iota // 0: drive, no charger available
	dayPlugged                    // 1: drive, recharge overnight
	dayVacation                   // 2: parked, nothing happens
	dayPreVacation                // 3: drive, then charge full before leaving
)

// scenario is one vehicle's fully drawn setup.
type scenario struct {
	usage    UsageClass
	climate  ClimateBand
	ambientK float64
	synth    drivecycle.SynthConfig
	days     []dayKind
}

// usageMix and climateMix are the family sampling weights (cumulative
// form). A 60/25/15 usage split and a 25/50/25 climate split keep every
// family populated at small fleet sizes without hiding the extremes.
var (
	usageMix = []struct {
		cum   float64
		class UsageClass
	}{
		{0.60, UsageCommuter},
		{0.85, UsageDelivery},
		{1.00, UsageHighway},
	}
	climateMix = []struct {
		cum  float64
		band ClimateBand
		lowK float64
		hiK  float64
	}{
		{0.25, ClimateCold, 265, 280},
		{0.75, ClimateTemperate, 285, 298},
		{1.00, ClimateHot, 300, 313},
	}
)

// plugModel are the day-transition probabilities of the plug-state model.
type plugModel struct {
	// pPlug is the chance an ordinary day ends at a charger.
	pPlug float64
	// pVacationStart is the chance a day starts a vacation block (the day
	// before becomes a pre-vacation full charge).
	pVacationStart float64
	// vacationDaysMax bounds one vacation block, days.
	vacationDaysMax int
}

var defaultPlugModel = plugModel{pPlug: 0.8, pVacationStart: 0.03, vacationDaysMax: 7}

// drawScenario samples vehicle i's complete scenario from its seeded RNG.
// The draw order is fixed and documented because it is part of the
// determinism contract: usage, climate, ambient, route shape, then the
// day sequence.
func drawScenario(spec Spec, vehicle int) scenario {
	rng := rand.New(rand.NewSource(vehicleSeed(spec.Seed, vehicle)))
	var sc scenario

	u := rng.Float64()
	sc.usage = usageMix[len(usageMix)-1].class
	for _, m := range usageMix {
		if u < m.cum {
			sc.usage = m.class
			break
		}
	}

	c := rng.Float64()
	last := climateMix[len(climateMix)-1]
	sc.climate, sc.ambientK = last.band, last.lowK
	for _, m := range climateMix {
		if c < m.cum {
			sc.climate = m.band
			sc.ambientK = m.lowK + rng.Float64()*(m.hiK-m.lowK)
			break
		}
	}

	sc.synth = synthFor(sc.usage, spec.RouteSeconds, rng.Int63())

	sc.days = make([]dayKind, spec.Days)
	pm := defaultPlugModel
	for d := 0; d < spec.Days; d++ {
		if rng.Float64() < pm.pVacationStart && d+1 < spec.Days {
			sc.days[d] = dayPreVacation
			span := 1 + rng.Intn(pm.vacationDaysMax)
			for v := 0; v < span && d+1+v < spec.Days; v++ {
				sc.days[d+1+v] = dayVacation
			}
			d += span
			continue
		}
		if rng.Float64() < pm.pPlug {
			sc.days[d] = dayPlugged
		} else {
			sc.days[d] = dayUnplugged
		}
	}
	return sc
}

// synthFor shapes the micro-trip synthesiser for a usage class. The
// per-vehicle seed makes every vehicle's route a distinct realization of
// its class.
func synthFor(u UsageClass, routeSeconds float64, seed int64) drivecycle.SynthConfig {
	cfg := drivecycle.SynthConfig{
		Name:           "FLEET-" + string(u),
		TargetDuration: routeSeconds,
		Seed:           seed,
	}
	switch u {
	case UsageDelivery:
		cfg.MeanPeakKmh = 35
		cfg.PeakJitter = 0.5
		cfg.MaxAccel = 2.0
		cfg.MeanCruise = 15
		cfg.MeanIdle = 25
	case UsageHighway:
		cfg.MeanPeakKmh = 105
		cfg.PeakJitter = 0.15
		cfg.MaxAccel = 2.0
		cfg.MeanCruise = 180
		cfg.MeanIdle = 8
	default: // UsageCommuter
		cfg.MeanPeakKmh = 60
		cfg.PeakJitter = 0.4
		cfg.MaxAccel = 2.5
		cfg.MeanCruise = 40
		cfg.MeanIdle = 12
	}
	return cfg
}

// SynthConfigFor exposes the per-usage-class route synthesiser to the
// route-preview layer (internal/hmpc): a previewed synthetic route is a
// realization of the same scenario model a fleet vehicle of this class
// would draw, so hierarchical-MPC studies and fleet sweeps share one
// route distribution.
func SynthConfigFor(u UsageClass, routeSeconds float64, seed int64) drivecycle.SynthConfig {
	return synthFor(u, routeSeconds, seed)
}

// FamilyNames lists every scenario family in canonical (sorted-by-
// construction) order: usage classes in sampling order × climate bands in
// sampling order.
func FamilyNames() []string {
	var out []string
	for _, u := range usageMix {
		for _, c := range climateMix {
			out = append(out, string(u.class)+"/"+string(c.band))
		}
	}
	return out
}
