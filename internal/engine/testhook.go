package engine

// SetMorselSizesForTesting replaces the morsel work target and the
// fan-out gate (morselRows and parallelMinRows by default) for the
// queries that start after it returns. It exists so that tests can drive
// small inputs through the morsel-parallel paths; it is not an option,
// and it must be called before the engine serves queries.
func (e *Engine) SetMorselSizesForTesting(target, gate int) {
	e.sizes = morselSizes{target: max(target, 1), gate: max(gate, 1)}
}
