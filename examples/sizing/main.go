// Sizing: the Table-I design question from a buyer's perspective.
//
// Ultracapacitors are the expensive part of an HEES (the paper quotes
// ≈$12,000 for 20,000 F). This example sweeps bank sizes under the Dual and
// OTEM methodologies on US06 and shows the paper's conclusion directly:
// with OTEM, shrinking the bank barely hurts — the cooler substitutes for
// the missing capacitance — so the designer can buy the small bank.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/otem"
)

// costPerFarad follows the paper's ≈$12,000 / 20,000 F figure.
const costPerFarad = 0.6

func main() {
	log.SetFlags(0)

	requests, err := otem.PowerSeries("US06", 3)
	if err != nil {
		log.Fatal(err)
	}

	sizes := []float64{5000, 10000, 20000, 25000}
	fmt.Printf("%-10s %10s | %14s %14s | %14s %14s\n",
		"size (F)", "bank $", "Dual loss %", "Dual P̄ (W)", "OTEM loss %", "OTEM P̄ (W)")

	for _, size := range sizes {
		dual := runOne(otem.MethodologyDual, size, requests)
		ot := runOne(otem.MethodologyOTEM, size, requests)
		fmt.Printf("%-10.0f %10.0f | %14.5f %14.0f | %14.5f %14.0f\n",
			size, size*costPerFarad,
			dual.QlossPct, dual.AvgPowerW,
			ot.QlossPct, ot.AvgPowerW)
	}
	fmt.Println("\nOTEM keeps capacity loss nearly flat across sizes (paper Table I):")
	fmt.Println("the active cooling system substitutes for the missing capacitance,")
	fmt.Printf("so the $%.0f small bank is viable under OTEM.\n", sizes[0]*costPerFarad)
}

// runOne simulates one (methodology, size) pair on a fresh controller and
// plant.
func runOne(m otem.Methodology, size float64, requests []float64) otem.Result {
	ctrl, err := otem.ControllerFor(m)
	if err != nil {
		log.Fatal(err)
	}
	plant, err := otem.NewPlant(otem.PlantConfig{UltracapF: size})
	if err != nil {
		log.Fatal(err)
	}
	res, err := otem.SimulateContext(context.Background(), plant, ctrl, requests)
	if err != nil {
		log.Fatal(err)
	}
	return res
}
