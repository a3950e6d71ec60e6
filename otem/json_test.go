package otem_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/otem"
)

var updateGolden = flag.Bool("update", false, "rewrite the JSON-schema golden files")

// goldenRun produces a small deterministic traced run for the schema
// tests: a fixed 8-step request profile through the passive-parallel
// baseline on a default plant. Everything here is pure, so the encoded
// bytes must be bit-identical on every platform and at every parallelism.
func goldenRun(t *testing.T) otem.Result {
	t.Helper()
	plant, err := otem.NewPlant(otem.PlantConfig{})
	if err != nil {
		t.Fatalf("NewPlant: %v", err)
	}
	ctrl, err := otem.ControllerFor(otem.MethodologyParallel)
	if err != nil {
		t.Fatalf("ControllerFor: %v", err)
	}
	requests := []float64{12e3, 30e3, 45e3, 60e3, 20e3, -15e3, -5e3, 8e3}
	res, err := otem.SimulateContext(context.Background(), plant, ctrl, requests, otem.WithTrace())
	if err != nil {
		t.Fatalf("SimulateContext: %v", err)
	}
	return res
}

// TestResultJSONGolden pins the wire schema: field set, json tags, value
// formatting and the schema version string. A diff here is a wire-format
// break — if it is intentional, bump ResultSchemaVersion and regenerate
// with `go test ./otem -run ResultJSONGolden -update`.
func TestResultJSONGolden(t *testing.T) {
	res := goldenRun(t)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(otem.EncodeResult(res)); err != nil {
		t.Fatalf("encode: %v", err)
	}
	path := filepath.Join("testdata", "result_v1.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("stable JSON schema drifted from golden file %s\n-- got --\n%s\n-- want --\n%s",
			path, buf.Bytes(), want)
	}
}

// TestEncodeResultSchemaInvariants checks the parts of the contract a
// golden file cannot: the version constant, trace omission without
// tracing, and column alignment with tracing.
func TestEncodeResultSchemaInvariants(t *testing.T) {
	res := goldenRun(t)
	wire := otem.EncodeResult(res)
	if wire.Schema != otem.ResultSchemaVersion {
		t.Errorf("Schema = %q, want %q", wire.Schema, otem.ResultSchemaVersion)
	}
	if len(wire.Trace) != res.Steps {
		t.Errorf("len(Trace) = %d, want Steps = %d", len(wire.Trace), res.Steps)
	}

	res.Trace = nil
	raw, err := json.Marshal(otem.EncodeResult(res))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if bytes.Contains(raw, []byte(`"trace"`)) {
		t.Errorf("trace key present without tracing: %s", raw)
	}

	// The wire struct must round-trip through its own tags losslessly.
	var back otem.ResultJSON
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(back, jsonNoTrace(wire)) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, wire)
	}
}

// jsonNoTrace strips the trace so the struct is comparable with ==.
func jsonNoTrace(w otem.ResultJSON) otem.ResultJSON {
	w.Trace = nil
	return w
}

// TestEncodeTraceNil pins nil-in nil-out.
func TestEncodeTraceNil(t *testing.T) {
	if got := otem.EncodeTrace(nil); got != nil {
		t.Errorf("EncodeTrace(nil) = %v, want nil", got)
	}
}
