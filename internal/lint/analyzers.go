package lint

// All returns the full otem-lint suite in reporting order. The slice is
// freshly allocated; callers may filter it.
func All() []*Analyzer {
	return []*Analyzer{
		AllocFlow,
		DetFlow,
		ErrFlow,
		ErrWrapCheck,
		FloatCompare,
		NakedGoroutine,
		Nilness,
		NoPanic,
		UnitMix,
		UnusedWrite,
	}
}
