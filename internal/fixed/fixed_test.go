package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromFloatRoundTrip(t *testing.T) {
	cases := []float64{0, 1, -1, 0.5, -0.25, 3.14159, 1000, -1000, 1.0 / 65536}
	for _, f := range cases {
		q := FromFloat(f)
		if got := q.Float(); math.Abs(got-f) > 1.0/65536 {
			t.Fatalf("round trip %v → %v", f, got)
		}
	}
}

func TestFromFloatSaturates(t *testing.T) {
	if FromFloat(1e9) != MaxQ {
		t.Fatal("positive saturation")
	}
	if FromFloat(-1e9) != MinQ {
		t.Fatal("negative saturation")
	}
	if FromFloat(math.NaN()) != 0 {
		t.Fatal("NaN should map to 0")
	}
}

func TestArithmetic(t *testing.T) {
	a, b := FromFloat(2.5), FromFloat(-1.5)
	if got := Add(a, b).Float(); got != 1 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(a, b).Float(); got != 4 {
		t.Fatalf("Sub = %v", got)
	}
	if got := Mul(a, b).Float(); math.Abs(got+3.75) > 1e-4 {
		t.Fatalf("Mul = %v", got)
	}
	if got := Div(a, b).Float(); math.Abs(got+5.0/3) > 1e-4 {
		t.Fatalf("Div = %v", got)
	}
	if Abs(b) != FromFloat(1.5) {
		t.Fatal("Abs")
	}
	if Abs(MinQ) != MaxQ {
		t.Fatal("Abs(MinQ) must saturate")
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Div(One, 0)
}

func TestMulSaturates(t *testing.T) {
	big := FromFloat(30000)
	if Mul(big, big) != MaxQ {
		t.Fatal("Mul should saturate")
	}
	if Mul(big, Sub(0, big)) != MinQ {
		t.Fatal("Mul should saturate negatively")
	}
}

func TestL1DistAcc(t *testing.T) {
	a, _ := QuantizeVecChecked([]float64{0, 1, -2})
	b, _ := QuantizeVecChecked([]float64{1, 1, 2})
	if got := L1DistAcc(a, b).Float(); math.Abs(got-5) > 1e-3 {
		t.Fatalf("L1 = %v", got)
	}
}

func TestSigmoidAccuracy(t *testing.T) {
	for x := -10.0; x <= 10; x += 0.173 {
		want := 1 / (1 + math.Exp(-x))
		got := Sigmoid(FromFloat(x)).Float()
		if math.Abs(got-want) > 2e-3 {
			t.Fatalf("sigmoid(%v) = %v, want %v", x, got, want)
		}
	}
	if Sigmoid(FromFloat(-20)) != 0 || Sigmoid(FromFloat(20)) != One {
		t.Fatal("sigmoid clamps")
	}
}

func TestQuantizeDequantize(t *testing.T) {
	xs := []float64{1.5, -2.25, 0}
	qs, _ := QuantizeVecChecked(xs)
	for i, q := range qs {
		if back := q.Float(); math.Abs(back-xs[i]) > 1e-4 {
			t.Fatalf("vec round trip %v → %v", xs[i], back)
		}
	}
}

// Property: Add/Sub/Mul agree with float arithmetic within quantisation
// noise for moderate operands.
func TestPropArithmeticTracksFloat(t *testing.T) {
	f := func(aRaw, bRaw int16) bool {
		a := float64(aRaw) / 256
		b := float64(bRaw) / 256
		qa, qb := FromFloat(a), FromFloat(b)
		const eps = 1e-3
		if math.Abs(Add(qa, qb).Float()-(a+b)) > eps {
			return false
		}
		if math.Abs(Sub(qa, qb).Float()-(a-b)) > eps {
			return false
		}
		return math.Abs(Mul(qa, qb).Float()-a*b) <= eps*(1+math.Abs(a*b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: sigmoid is monotone non-decreasing in fixed point.
func TestPropSigmoidMonotone(t *testing.T) {
	f := func(aRaw, bRaw int16) bool {
		a, b := Q(aRaw)*256, Q(bRaw)*256
		if a > b {
			a, b = b, a
		}
		return Sigmoid(a) <= Sigmoid(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
