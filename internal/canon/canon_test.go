package canon

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

type fixedSpec string

func (s fixedSpec) AppendCanonical(dst []byte) []byte { return append(dst, s...) }

// TestEncoderBytes pins the exact bytes of every encoder. Cache keys and
// fleet digests hash these bytes, so any change here silently invalidates
// every stored key and digest.
func TestEncoderBytes(t *testing.T) {
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{"field", Field(nil, "k"), "|k="},
		{"str", Str(nil, "cycle", "UDDS"), "|cycle=UDDS"},
		{"str empty", Str(nil, "k", ""), "|k="},
		{"int", Int(nil, "n", -42), "|n=-42"},
		{"int64 max", Int64(nil, "seed", math.MaxInt64), "|seed=9223372036854775807"},
		{"int64 min", Int64(nil, "seed", math.MinInt64), "|seed=-9223372036854775808"},
		{"float zero", Float(nil, "x", 0), "|x=0"},
		{"float negative zero", Float(nil, "x", math.Copysign(0, -1)), "|x=-0"},
		{"float shortest", Float(nil, "x", 0.1), "|x=0.1"},
		{"float 1e21", Float(nil, "x", 1e21), "|x=1e+21"},
		{"float 1e20", Float(nil, "x", 1e20), "|x=1e+20"},
		{"float 123456", Float(nil, "x", 123456), "|x=123456"},
		{"float subnormal", Float(nil, "x", 5e-324), "|x=5e-324"},
		{"float NaN", Float(nil, "x", math.NaN()), "|x=NaN"},
		{"float +Inf", Float(nil, "x", math.Inf(1)), "|x=+Inf"},
		{"float -Inf", Float(nil, "x", math.Inf(-1)), "|x=-Inf"},
		{"bool", Bool(Bool(nil, "a", true), "b", false), "|a=true|b=false"},
		{"floats empty", Floats(nil, "xs", nil), "|xs="},
		{"floats one", Floats(nil, "xs", []float64{2.5}), "|xs=2.5"},
		{"floats many", Floats(nil, "xs", []float64{1, -0.5, 25000}), "|xs=1,-0.5,25000"},
		{"appends", Int([]byte("otem.run/v1"), "repeats", 3), "otem.run/v1|repeats=3"},
		{"string", []byte(String(fixedSpec("otem.x|a=1"))), "otem.x|a=1"},
	}
	for _, tc := range cases {
		if string(tc.got) != tc.want {
			t.Errorf("%s: got %q, want %q", tc.name, tc.got, tc.want)
		}
	}
}

// FuzzCanonFloat checks the promise in Float's doc comment: the encoding
// is bit-faithful, so parsing the encoded value back returns every finite
// float bit for bit (−0 included).
func FuzzCanonFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 0.1, 1e21, -1e-300, 5e-324, math.MaxFloat64, 298.15} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		enc := string(Float(nil, "x", v))
		s, ok := strings.CutPrefix(enc, "|x=")
		if !ok {
			t.Fatalf("Float(%v) = %q: missing field prefix", v, enc)
		}
		got, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("Float(%v) = %q does not parse: %v", v, enc, err)
		}
		if math.Float64bits(got) != bits {
			t.Fatalf("Float(%v) = %q parses to %v (bits %#x), want bits %#x", v, enc, got, math.Float64bits(got), bits)
		}
	})
}
