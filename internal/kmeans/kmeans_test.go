package kmeans

import (
	"testing"
	"testing/quick"

	"edgedrift/internal/mat"
	"edgedrift/internal/rng"
)

// threeBlobs returns well-separated Gaussian blobs around the given
// centres.
func threeBlobs(r *rng.Rand, perBlob int, centres [][]float64, std float64) ([][]float64, []int) {
	var data [][]float64
	var labels []int
	for ci, c := range centres {
		for i := 0; i < perBlob; i++ {
			x := make([]float64, len(c))
			for j := range x {
				x[j] = r.Normal(c[j], std)
			}
			data = append(data, x)
			labels = append(labels, ci)
		}
	}
	return data, labels
}

func TestRunRecoversSeparatedBlobs(t *testing.T) {
	r := rng.New(1)
	centres := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	data, truth := threeBlobs(r, 100, centres, 0.5)
	res := Run(data, Config{K: 3}, r)
	if len(res.Centroids) != 3 {
		t.Fatalf("got %d centroids", len(res.Centroids))
	}
	// Every found centroid must be within 1.0 of a distinct true centre.
	used := make([]bool, 3)
	for _, c := range res.Centroids {
		found := false
		for ti, tc := range centres {
			if !used[ti] && mat.L2Dist(c, tc) < 1.0 {
				used[ti] = true
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("centroid %v matches no true centre", c)
		}
	}
	// Cluster assignments must be pure: samples of one true blob share a
	// cluster id.
	for blob := 0; blob < 3; blob++ {
		first := -1
		for i, lab := range truth {
			if lab != blob {
				continue
			}
			if first == -1 {
				first = res.Assign[i]
			} else if res.Assign[i] != first {
				t.Fatalf("blob %d split across clusters", blob)
			}
		}
	}
}

func TestRunDeterministicGivenSeed(t *testing.T) {
	data, _ := threeBlobs(rng.New(2), 50, [][]float64{{0, 0}, {5, 5}}, 0.3)
	a := Run(data, Config{K: 2}, rng.New(99))
	b := Run(data, Config{K: 2}, rng.New(99))
	for i := range a.Centroids {
		if mat.L2Dist(a.Centroids[i], b.Centroids[i]) != 0 {
			t.Fatal("same seed produced different clusterings")
		}
	}
	if a.Inertia != b.Inertia {
		t.Fatal("inertia differs across identical runs")
	}
}

func TestRunSingleCluster(t *testing.T) {
	r := rng.New(3)
	data, _ := threeBlobs(r, 40, [][]float64{{1, 2}}, 0.1)
	res := Run(data, Config{K: 1}, r)
	if mat.L2Dist(res.Centroids[0], []float64{1, 2}) > 0.1 {
		t.Fatalf("K=1 centroid = %v", res.Centroids[0])
	}
	for _, a := range res.Assign {
		if a != 0 {
			t.Fatal("K=1 must assign everything to cluster 0")
		}
	}
}

func TestRunKLargerThanN(t *testing.T) {
	data := [][]float64{{0}, {1}}
	res := Run(data, Config{K: 5}, rng.New(4))
	if len(res.Centroids) != 2 {
		t.Fatalf("K>n should clamp to n, got %d centroids", len(res.Centroids))
	}
}

func TestRunPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(nil, Config{K: 2}, rng.New(1))
}

func TestSeedPlusPlusSpreadsCentroids(t *testing.T) {
	r := rng.New(5)
	// Two tight, far-apart groups: ++ seeding should pick one from each.
	data, _ := threeBlobs(r, 50, [][]float64{{0, 0}, {100, 100}}, 0.01)
	hits := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		cents := SeedPlusPlus(data, 2, r)
		if mat.L2Dist(cents[0], cents[1]) > 50 {
			hits++
		}
	}
	if hits < trials*9/10 {
		t.Fatalf("k-means++ spread only %d/%d trials", hits, trials)
	}
}

func TestSeedPlusPlusDegenerateData(t *testing.T) {
	// All identical points: must not loop or divide by zero.
	data := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	cents := SeedPlusPlus(data, 3, rng.New(6))
	if len(cents) != 3 {
		t.Fatalf("got %d centroids", len(cents))
	}
	for _, c := range cents {
		if c[0] != 1 || c[1] != 1 {
			t.Fatalf("unexpected centroid %v", c)
		}
	}
}

func TestNearest(t *testing.T) {
	cents := [][]float64{{0, 0}, {10, 0}}
	idx, sq := Nearest(cents, []float64{1, 0})
	if idx != 0 || sq != 1 {
		t.Fatalf("Nearest = %d, %v", idx, sq)
	}
}

func TestNearestPanicsOnNoCentroids(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Nearest(nil, []float64{1})
}

func TestRunConvergesWithinMaxIter(t *testing.T) {
	r := rng.New(8)
	data, _ := threeBlobs(r, 30, [][]float64{{0, 0}, {20, 20}}, 0.2)
	res := Run(data, Config{K: 2, MaxIter: 50}, r)
	if res.Iterations >= 50 {
		t.Fatalf("did not converge early: %d iterations", res.Iterations)
	}
}

// Property: inertia of the returned clustering never exceeds the inertia
// of assigning everything to the global mean (the K=1 optimum), for K ≥ 1.
func TestPropInertiaImprovesOnGlobalMean(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		r := rng.New(seed)
		k := int(kRaw%4) + 1
		data, _ := threeBlobs(r, 20, [][]float64{{0, 0}, {4, 4}, {-4, 4}}, 1.0)
		res := Run(data, Config{K: k}, r)
		mean := make([]float64, 2)
		mat.MeanVec(mean, data)
		var base float64
		for _, x := range data {
			base += mat.SqDist(x, mean)
		}
		return res.Inertia <= base+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: every assignment index is in range and every sample is
// assigned to its genuinely nearest centroid on return.
func TestPropAssignmentsAreNearest(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		data, _ := threeBlobs(r, 15, [][]float64{{0, 0}, {3, 0}}, 0.8)
		res := Run(data, Config{K: 2}, r)
		for i, x := range data {
			want, _ := Nearest(res.Centroids, x)
			if res.Assign[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRunK3D38(b *testing.B) {
	r := rng.New(1)
	data, _ := threeBlobs(r, 300, [][]float64{make([]float64, 38), onesVec(38, 3), onesVec(38, -3)}, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(data, Config{K: 3}, rng.New(uint64(i)))
	}
}

func onesVec(n int, v float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = v
	}
	return x
}
