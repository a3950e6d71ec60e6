// Hotclimate: the paper's §I premise — the HEES alone cannot keep the
// battery safe — demonstrated across ambient temperatures.
//
// The same LA92 route is driven in mild, warm and desert-summer ambients.
// Without active cooling (dual architecture) the safe zone is violated as
// the ambient climbs; OTEM engages its cooler progressively and holds the
// battery inside the safe zone everywhere, at a visible but bounded power
// premium.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/otem"
)

func main() {
	log.SetFlags(0)

	ambients := []float64{20, 30, 38} // °C
	fmt.Printf("%-12s | %12s %12s %12s | %12s %12s %12s\n",
		"ambient °C", "dual maxT", "dual viol s", "dual P̄ W", "OTEM maxT", "OTEM viol s", "OTEM P̄ W")

	for _, amb := range ambients {
		// The request series itself depends on the climate: HVAC load.
		requests, err := otem.PowerSeriesAt("LA92", 2, amb+273.15)
		if err != nil {
			log.Fatal(err)
		}
		dual := run(otem.MethodologyDual, amb, requests)
		managed := run(otem.MethodologyOTEM, amb, requests)

		fmt.Printf("%-12.0f | %12.1f %12.0f %12.0f | %12.1f %12.0f %12.0f\n",
			amb,
			dual.MaxBatteryTemp-273.15, dual.ThermalViolationSec, dual.AvgPowerW,
			managed.MaxBatteryTemp-273.15, managed.ThermalViolationSec, managed.AvgPowerW)
	}
	fmt.Println("\nthe dual architecture loses the safe zone as ambient rises;")
	fmt.Println("OTEM spends cooler power only where the climate demands it.")
}

func run(m otem.Methodology, ambientC float64, requests []float64) otem.Result {
	ctrl, err := otem.ControllerFor(m)
	if err != nil {
		log.Fatal(err)
	}
	plant, err := otem.NewPlant(otem.PlantConfig{
		InitialTemp: ambientC + 273.15,
		Ambient:     ambientC + 273.15,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := otem.SimulateContext(context.Background(), plant, ctrl, requests)
	if err != nil {
		log.Fatal(err)
	}
	return res
}
