package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hmpc"
	"repro/internal/sim"
)

// pinsJSON holds the outputs every generated input must reproduce bit for
// bit. Regenerate it with -record-pins only for a deliberate change of
// results.
//
//go:embed pins.json
var pinsJSON []byte

// routePin is one route's pinned outputs: float64 bit patterns in hex, plus
// the two-layer replan counts.
type routePin struct {
	QlossPct          string `json:"qloss_pct"`
	HEESEnergyJ       string `json:"hees_energy_j"`
	FinalSoC          string `json:"final_soc"`
	OuterReplans      int    `json:"outer_replans,omitempty"`
	DivergenceReplans int    `json:"divergence_replans,omitempty"`
}

func pinOf(r sim.Result, outer, divergence int) routePin {
	bits := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
	return routePin{
		QlossPct:          bits(r.QlossPct),
		HEESEnergyJ:       bits(r.HEESEnergyJ),
		FinalSoC:          bits(r.FinalSoC),
		OuterReplans:      outer,
		DivergenceReplans: divergence,
	}
}

// pinSet is the content of pins.json.
type pinSet struct {
	// Routes maps a route input (driveKey, or a canonical hmpc spec) to its
	// outputs.
	Routes map[string]routePin `json:"routes"`
	// Fleets maps a canonical fleet spec to its result digest.
	Fleets map[string]string `json:"fleets"`
	// Bodies maps a warmed serve request body to the SHA-256 of its
	// response body.
	Bodies map[string]string `json:"bodies"`
}

func loadPins() (*pinSet, error) {
	var ps pinSet
	if err := json.Unmarshal(pinsJSON, &ps); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return &ps, nil
}

func (ps *pinSet) checkRoute(key string, got routePin) error {
	want, ok := ps.Routes[key]
	switch {
	case !ok:
		return fmt.Errorf("%s: no pinned outputs", key)
	case got != want:
		return fmt.Errorf("%s: outputs %+v, pinned %+v", key, got, want)
	}
	return nil
}

// checkFleet compares a fleet digest with its pin; a spec without a pin
// passes, its correctness resting on the caller's identity check.
func (ps *pinSet) checkFleet(spec fleet.Spec, digest string, required bool) error {
	key := canon.String(spec)
	want, ok := ps.Fleets[key]
	switch {
	case !ok && required:
		return fmt.Errorf("%s: no pinned digest", key)
	case ok && digest != want:
		return fmt.Errorf("%s: digest %s, pinned %s", key, digest, want)
	}
	return nil
}

func (ps *pinSet) checkBody(key string, body []byte) error {
	sum := sha256.Sum256(body)
	got := hex.EncodeToString(sum[:])
	want, ok := ps.Bodies[key]
	switch {
	case !ok:
		return fmt.Errorf("serve %s: no pinned body", key)
	case got != want:
		return fmt.Errorf("serve %s: body sha256 %s, pinned %s", key, got, want)
	}
	return nil
}

// recordPins recomputes every pin, at full and smoke size, and writes them
// to path.
func recordPins(ctx context.Context, path string) error {
	ps := pinSet{Routes: map[string]routePin{}, Fleets: map[string]string{}, Bodies: map[string]string{}}
	horizon := core.DefaultConfig().Horizon
	for _, smoke := range []bool{false, true} {
		requests := uddsRequests(smoke)
		for _, soc := range driveSoCs {
			plant, err := sim.NewPlant(sim.PlantConfig{InitialSoC: soc})
			if err != nil {
				return err
			}
			ctrl, err := core.New(core.DefaultConfig())
			if err != nil {
				return err
			}
			res, err := sim.RunContext(ctx, plant, ctrl, requests, sim.Config{Horizon: horizon})
			if err != nil {
				return err
			}
			ps.Routes[driveKey(len(requests), soc)] = pinOf(res, 0, 0)
		}
		for _, specs := range hmpcPool(smoke) {
			for _, spec := range specs {
				ctrl, plant, requests, err := hmpc.Build(spec)
				if err != nil {
					return err
				}
				res, err := sim.RunContext(ctx, plant, ctrl, requests, sim.Config{Horizon: horizon})
				if err != nil {
					return err
				}
				ps.Routes[canon.String(spec)] = pinOf(res, ctrl.OuterReplans(), ctrl.DivergenceReplans())
			}
		}
		specs := fleetOTEMPool(smoke)
		for _, seed := range fleetParallelPinnedSeeds {
			specs = append(specs, fleetParallelSpec(seed, smoke))
		}
		for _, spec := range specs {
			res, err := fleet.RunWith(ctx, spec, fleet.Options{Pool: workerPool(0)})
			if err != nil {
				return err
			}
			ps.Fleets[canon.String(spec)] = res.Digest()
		}
		fmt.Fprintf(os.Stderr, "bench: recorded pins (smoke=%v)\n", smoke)
	}
	_, bodies, err := warmServer()
	if err != nil {
		return err
	}
	for key, body := range bodies {
		sum := sha256.Sum256(body)
		ps.Bodies[key] = hex.EncodeToString(sum[:])
	}
	raw, err := json.MarshalIndent(ps, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
