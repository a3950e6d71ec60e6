// Quickstart: run the OTEM controller over the aggressive US06 cycle and
// print the metrics the paper reports — capacity loss, average power and
// battery temperature — next to the management-free parallel baseline.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/otem"
)

func main() {
	log.SetFlags(0)
	ctx := context.Background()

	// EV power requests: US06 driven five times (the paper's Fig. 6/7
	// workload).
	requests, err := otem.PowerSeries("US06", 5)
	if err != nil {
		log.Fatal(err)
	}

	// The OTEM methodology: hybrid HEES + active cooling + MPC.
	plant, err := otem.NewPlant(otem.PlantConfig{})
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := otem.ControllerFor(otem.MethodologyOTEM)
	if err != nil {
		log.Fatal(err)
	}
	managed, err := otem.SimulateContext(ctx, plant, ctrl, requests)
	if err != nil {
		log.Fatal(err)
	}

	// The unmanaged baseline on an identical fresh plant.
	plant2, err := otem.NewPlant(otem.PlantConfig{})
	if err != nil {
		log.Fatal(err)
	}
	baseline, err := otem.ControllerFor(otem.MethodologyParallel)
	if err != nil {
		log.Fatal(err)
	}
	unmanaged, err := otem.SimulateContext(ctx, plant2, baseline, requests)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("US06 ×5, 25 kF ultracapacitor, 96S24P NCR18650A pack")
	fmt.Printf("%-22s %14s %14s\n", "", "OTEM", "Parallel")
	fmt.Printf("%-22s %13.5f%% %13.5f%%\n", "capacity loss", managed.QlossPct, unmanaged.QlossPct)
	fmt.Printf("%-22s %13.0f W %13.0f W\n", "average power", managed.AvgPowerW, unmanaged.AvgPowerW)
	fmt.Printf("%-22s %13.1f °C %13.1f °C\n", "peak battery temp",
		managed.MaxBatteryTemp-273.15, unmanaged.MaxBatteryTemp-273.15)
	fmt.Printf("%-22s %13.0f s %13.0f s\n", "time above 40 °C",
		managed.ThermalViolationSec, unmanaged.ThermalViolationSec)
	fmt.Printf("\nbattery lifetime extension vs parallel: %.1f %%\n",
		managed.LifetimeExtensionPct(unmanaged))
}
