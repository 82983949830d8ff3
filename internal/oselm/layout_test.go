package oselm

import (
	"bytes"
	"testing"
	"unsafe"

	"edgedrift/internal/mat"
	"edgedrift/internal/rng"
)

// TestFanWidthRowsOnLines pins the float64 backend's layout: at the
// cooling-fan width D=511 every row of W and β, built by New or by Load,
// starts on a 64-byte cache line (stride 512), while at the NSL-KDD
// width D=38 they and P stay dense, as does the float32 twin at either
// width. Weights and Save still see dense row-major slabs.
func TestFanWidthRowsOnLines(t *testing.T) {
	for _, tc := range []struct{ d, stride int }{{511, 512}, {38, 0}} {
		m, err := New(Config{Inputs: tc.d, Hidden: 22, Outputs: tc.d}, rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, tc.d)
		rng.New(8).FillUniform(x, 0, 1)
		m.Train(x, x)
		var buf bytes.Buffer
		if _, err := m.Save(&buf, Float64); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for name, mm := range map[string]*Model{"new": m, "loaded": loaded} {
			if mm.p.Stride != 0 {
				t.Fatalf("D=%d %s: P stride %d, want dense", tc.d, name, mm.p.Stride)
			}
			for which, w := range map[string]*mat.Matrix{"W": mm.w, "β": mm.beta} {
				if w.Stride != tc.stride {
					t.Fatalf("D=%d %s: %s stride %d, want %d", tc.d, name, which, w.Stride, tc.stride)
				}
				for i := 0; tc.stride != 0 && i < w.Rows; i++ {
					if a := uintptr(unsafe.Pointer(&w.Row(i)[0])); a%64 != 0 {
						t.Fatalf("D=%d %s: %s row %d at %#x, not on a 64-byte line", tc.d, name, which, i, a)
					}
				}
			}
			w, _, beta := mm.Weights()
			if len(w) != 22*tc.d || len(beta) != 22*tc.d {
				t.Fatalf("D=%d %s: Weights lengths %d, %d, want %d", tc.d, name, len(w), len(beta), 22*tc.d)
			}
			for i := 0; i < 22; i++ {
				if !sameBits64(w[i*tc.d:(i+1)*tc.d], mm.w.Row(i)) || !sameBits64(beta[i*tc.d:(i+1)*tc.d], mm.beta.Row(i)) {
					t.Fatalf("D=%d %s: Weights row %d is not the matrix row", tc.d, name, i)
				}
			}
		}
		if !sameBitsMat(m.w, loaded.w) || !sameBitsMat(m.beta, loaded.beta) || m.Fingerprint() != loaded.Fingerprint() {
			t.Fatalf("D=%d: loaded model differs from the saved one", tc.d)
		}
		m32, err := m.ConvertPrecision(Float32)
		if err != nil {
			t.Fatal(err)
		}
		if m32.w32.Stride != 0 || m32.beta32.Stride != 0 {
			t.Fatalf("D=%d: float32 twin strides %d, %d, want dense", tc.d, m32.w32.Stride, m32.beta32.Stride)
		}
		w, _, beta := m.Weights()
		for i, v := range w {
			if m32.w32.Data[i] != float32(v) || m32.beta32.Data[i] != float32(beta[i]) {
				t.Fatalf("D=%d: float32 twin element %d is not the narrowed image", tc.d, i)
			}
		}
	}
}
