//go:build slow

package difftest

import "testing"

// TestDifferentialFull is the full corpus: dozens of random graphs and
// hundreds of pipelines per graph, in every translation mode. Run with
//
//	go test -tags slow ./internal/core/difftest/
func TestDifferentialFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential corpus")
	}
	if err := Run(100, 24, 150, allModes, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialPlanEquivalenceFull is the full strategy sweep: more
// graphs and pipelines, in every translation mode.
func TestDifferentialPlanEquivalenceFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full plan-equivalence corpus")
	}
	if err := RunPlans(200, 12, 60, allModes, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialShapesFull is the full "same shape, different literals,
// interleaved" corpus, cold pass and warm pass, in every translation mode.
func TestDifferentialShapesFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full shapes corpus")
	}
	if err := RunShapes(400, 16, 120, allModes, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialTinyMorselsFull is the full corpus and plan-space
// sweep of the tiny-morsel arm, in every translation mode.
func TestDifferentialTinyMorselsFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full tiny-morsel corpus")
	}
	if err := Run(100, 24, 150, allModes, TinyMorsels); err != nil {
		t.Fatal(err)
	}
	if err := RunPlans(200, 12, 60, allModes, TinyMorsels); err != nil {
		t.Fatal(err)
	}
}
