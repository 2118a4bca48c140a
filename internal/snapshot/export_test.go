package snapshot

// WithFreshSurvivors turns on o's freshSurvivors mutation seam (see Grow),
// so the external model-checking tests can prove the searcher convicts it.
func WithFreshSurvivors[V any](o *LockFree[V]) *LockFree[V] {
	o.mut.freshSurvivors = true
	return o
}
