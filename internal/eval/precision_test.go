package eval

import (
	"math"
	"strconv"
	"testing"

	"edgedrift/internal/oselm"
)

// TestSetPrecisionValidation pins the trainable set: the Q16.16 backend
// cannot run the experiments (it is inference-only) and unknown values
// are rejected.
func TestSetPrecisionValidation(t *testing.T) {
	if err := SetPrecision(oselm.Fixed16); err == nil {
		t.Fatal("SetPrecision accepted Fixed16")
	}
	if err := SetPrecision(oselm.Float32); err != nil {
		t.Fatal(err)
	}
	if got := modelPrecision; got != oselm.Float32 {
		t.Fatalf("modelPrecision = %v after SetPrecision(Float32)", got)
	}
	if err := SetPrecision(oselm.Float64); err != nil {
		t.Fatal(err)
	}
}

// cellOrNaN parses a table cell, treating the "-" no-value marker as NaN.
func cellOrNaN(t *testing.T, table *Table, row, col int) float64 {
	t.Helper()
	cell := table.Rows[row][col]
	if cell == "-" {
		return math.NaN()
	}
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q is not numeric: %v", row, col, cell, err)
	}
	return v
}

// TestTable2Float32Parity reproduces Table 2 on both trainable backends
// and checks every cell of the float32 run against the float64 golden
// within the documented tolerance (DESIGN.md §11): accuracies within one
// percentage point, detection delays within 10% of the window (±25
// samples at W=250 and below), and detected/undetected verdicts
// identical. The float64 run itself is pinned bit-identical to the seed
// by the root golden-stream test; this test bounds how far single
// precision moves the paper's headline numbers.
func TestTable2Float32Parity(t *testing.T) {
	if testing.Short() {
		t.Skip("two full Table-2 reproductions")
	}
	if modelPrecision != oselm.Float64 {
		t.Fatalf("precondition: experiments default to Float64, got %v", modelPrecision)
	}
	golden := Table2(1).Tables[0]
	if err := SetPrecision(oselm.Float32); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := SetPrecision(oselm.Float64); err != nil {
			t.Fatal(err)
		}
	})
	got := Table2(1).Tables[0]

	if len(got.Rows) != len(golden.Rows) {
		t.Fatalf("f32 table has %d rows, f64 has %d", len(got.Rows), len(golden.Rows))
	}
	const accTolPts = 1.0 // percentage points
	for r := range golden.Rows {
		name := golden.Rows[r][0]
		if got.Rows[r][0] != name {
			t.Fatalf("row %d: method %q vs %q", r, got.Rows[r][0], name)
		}
		a64 := cellOrNaN(t, golden, r, 1)
		a32 := cellOrNaN(t, got, r, 1)
		if math.Abs(a64-a32) > accTolPts {
			t.Errorf("%s: accuracy %.2f%% (f32) vs %.2f%% (f64), tolerance %.1f points",
				name, a32, a64, accTolPts)
		}
		d64 := cellOrNaN(t, golden, r, 2)
		d32 := cellOrNaN(t, got, r, 2)
		if math.IsNaN(d64) != math.IsNaN(d32) {
			t.Errorf("%s: detection verdict flipped: delay %v (f64) vs %v (f32)", name, d64, d32)
			continue
		}
		if math.IsNaN(d64) {
			continue // undetected on both backends
		}
		delayTol := math.Max(25, 0.10*d64)
		if math.Abs(d64-d32) > delayTol {
			t.Errorf("%s: delay %v (f32) vs %v (f64), tolerance %v", name, d32, d64, delayTol)
		}
	}
}
