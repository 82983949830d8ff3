package oselm

import (
	"fmt"
	"testing"

	"edgedrift/internal/rng"
)

// Per-sample hot-path benchmarks at the detector's real shapes. Score is
// the prediction cost (hidden projection + reconstruction), Train adds
// the rank-1 RLS update; together they bound the per-sample latency the
// paper reports in Tables 5–6. D=38 is the NSL-KDD surrogate, the shape
// every member of the serve tier scores at.
func benchShapes() []struct{ d, h int } {
	return []struct{ d, h int }{{38, 22}, {511, 22}, {511, 64}, {511, 128}}
}

func BenchmarkScore(b *testing.B) {
	for _, s := range benchShapes() {
		b.Run(fmt.Sprintf("D%d_H%d", s.d, s.h), func(b *testing.B) {
			ae, err := NewAutoencoder(Config{Inputs: s.d, Hidden: s.h}, MSE, rng.New(7))
			if err != nil {
				b.Fatal(err)
			}
			x := make([]float64, s.d)
			rng.New(3).FillUniform(x, -1, 1)
			ae.Train(x)
			b.ReportAllocs()
			b.ResetTimer()
			var sum float64
			for i := 0; i < b.N; i++ {
				sum += ae.Score(x)
			}
			benchSink = sum
		})
	}
}

func BenchmarkTrain(b *testing.B) {
	for _, s := range benchShapes() {
		b.Run(fmt.Sprintf("D%d_H%d", s.d, s.h), func(b *testing.B) {
			m, err := New(Config{Inputs: s.d, Hidden: s.h, Outputs: s.d}, rng.New(7))
			if err != nil {
				b.Fatal(err)
			}
			x := make([]float64, s.d)
			rng.New(3).FillUniform(x, -1, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Train(x, x)
			}
		})
	}
}

var benchSink float64
