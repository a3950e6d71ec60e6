package drivecycle

// This file adds the non-EPA cycles: the worldwide harmonised WLTC
// (class 3b), Japan's JC08 and the European Artemis Urban cycle, built with
// the same micro-trip synthesis calibrated to their published statistics.

// WLTC3 returns the WLTP class-3b cycle (≈1800 s, ≈23.3 km, avg ≈46.5 km/h,
// max ≈131 km/h — four phases from low to extra-high speed).
func WLTC3() *Cycle {
	c := mustSynthesize("WLTC3", 10, []microTrip{
		// Low phase: urban stop-and-go.
		{peakKmh: 40, accel: 1.0, decel: 1.1, cruise: 25, idle: 20, repeat: 7},
		// Medium phase.
		{peakKmh: 70, accel: 1.0, decel: 1.0, cruise: 60, idle: 20, repeat: 4},
		// High phase.
		{peakKmh: 97, accel: 0.8, decel: 0.9, cruise: 220, idle: 10},
		// Extra-high phase.
		{peakKmh: 131, accel: 0.7, decel: 0.9, cruise: 120, idle: 20},
	})
	return c
}

// JC08 returns the Japanese JC08 cycle (≈1204 s, ≈8.2 km, avg ≈24.4 km/h,
// max ≈81.6 km/h — dense urban with one expressway excursion).
func JC08() *Cycle {
	return mustSynthesize("JC08", 25, []microTrip{
		{peakKmh: 81, accel: 0.9, decel: 1.0, cruise: 50, idle: 20},
		{peakKmh: 60, accel: 0.9, decel: 1.0, cruise: 40, idle: 25, repeat: 3},
		{peakKmh: 35, accel: 0.8, decel: 1.0, cruise: 25, idle: 30, repeat: 6},
		{peakKmh: 20, accel: 0.7, decel: 0.9, cruise: 15, idle: 25, repeat: 4},
	})
}

// ArtemisUrban returns the Artemis urban cycle (≈993 s, ≈4.9 km,
// avg ≈17.7 km/h, max ≈57.3 km/h — European real-traffic urban driving).
func ArtemisUrban() *Cycle {
	return mustSynthesize("ARTEMIS-URBAN", 20, []microTrip{
		{peakKmh: 57, accel: 1.3, decel: 1.4, cruise: 25, idle: 18, repeat: 2},
		{peakKmh: 40, accel: 1.2, decel: 1.3, cruise: 22, idle: 20, repeat: 6},
		{peakKmh: 25, accel: 1.0, decel: 1.2, cruise: 14, idle: 22, repeat: 8},
	})
}
