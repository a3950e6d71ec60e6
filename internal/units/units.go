// Package units collects physical constants and small unit-conversion
// helpers shared by the electro-thermal models. Everything in this module is
// SI unless a name says otherwise: temperatures in kelvin, energy in joules,
// power in watts, charge in coulombs.
package units

// Physical constants.
const (
	// GasConstant is the ideal gas constant R in J/(mol·K), used by the
	// Arrhenius capacity-loss model (paper Eq. 5).
	GasConstant = 8.314462618

	// Gravity is the standard gravitational acceleration in m/s².
	Gravity = 9.80665

	// AirDensity is the density of air at sea level and 15 °C in kg/m³,
	// used by the vehicle road-load model.
	AirDensity = 1.225

	// ZeroCelsius is 0 °C expressed in kelvin.
	ZeroCelsius = 273.15
)

// SecondsPerHour converts hours to seconds.
const SecondsPerHour = 3600.0

// CToK converts a temperature from degrees Celsius to kelvin.
func CToK(c float64) float64 { return c + ZeroCelsius }

// KToC converts a temperature from kelvin to degrees Celsius.
func KToC(k float64) float64 { return k - ZeroCelsius }

// KmhToMs converts a speed from km/h to m/s.
func KmhToMs(kmh float64) float64 { return kmh / 3.6 }

// MsToKmh converts a speed from m/s to km/h.
func MsToKmh(ms float64) float64 { return ms * 3.6 }

// AhToCoulomb converts a charge from ampere-hours to coulombs.
func AhToCoulomb(ah float64) float64 { return ah * SecondsPerHour }

// JouleToKWh converts energy from joules to kilowatt-hours.
func JouleToKWh(j float64) float64 { return j / 3.6e6 }

// Clamp limits x to the closed interval [lo, hi]. It panics if lo > hi.
func Clamp(x, lo, hi float64) float64 {
	if lo > hi {
		//lint:ignore nopanic tested argument contract: an inverted interval is a programmer error, and Clamp is too hot for an error return
		panic("units: Clamp called with lo > hi")
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Lerp linearly interpolates between a and b with parameter t in [0, 1].
// Values of t outside [0, 1] extrapolate.
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }
