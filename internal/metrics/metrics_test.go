package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	if g.Load() != 0 {
		t.Fatal("zero gauge must read 0")
	}
	g.Set(3.25)
	if got := g.Load(); got != 3.25 {
		t.Fatalf("gauge = %v, want 3.25", got)
	}
	g.Set(math.Inf(-1))
	if !math.IsInf(g.Load(), -1) {
		t.Fatal("gauge must round-trip -Inf bits")
	}
}

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	// bits.Len64: 0→bucket 0, 1→1, 2,3→2, 4..7→3, ...
	h.Observe(0)
	h.Observe(1)
	h.Observe(2)
	h.Observe(3)
	h.Observe(7)
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 13 {
		t.Fatalf("count/sum = %d/%d, want 5/13", s.Count, s.Sum)
	}
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1}
	for i, c := range s.Buckets {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	// An upper bound holds every value the bucket can contain.
	for i := 0; i < HistogramBuckets; i++ {
		if i > 0 && s.UpperBound(i) != 2*s.UpperBound(i-1)+1 {
			t.Fatalf("bucket bounds not power-of-two at %d", i)
		}
	}
}

func TestHistogramClampsHugeValues(t *testing.T) {
	var h Histogram
	h.Observe(math.MaxUint64)
	s := h.Snapshot()
	if s.Buckets[HistogramBuckets-1] != 1 {
		t.Fatal("huge observation must clamp into the last bucket")
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Snapshot().Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	for i := 0; i < 90; i++ {
		h.Observe(100) // bucket 7, [64, 127]
	}
	for i := 0; i < 10; i++ {
		h.Observe(100_000) // bucket 17, [65536, 131071]
	}
	s := h.Snapshot()
	// Rank 50 of the 90 in bucket 7: 64 + ⌈64·50/90⌉ − 1.
	if got := s.Quantile(0.5); got != 99 {
		t.Fatalf("p50 = %d, want 99", got)
	}
	if got := h.Quantile(0.5); got != s.Quantile(0.5) {
		t.Fatalf("live Quantile %d disagrees with snapshot %d", got, s.Quantile(0.5))
	}
	// Rank 9 of the 10 in bucket 17: 65536 + ⌈65536·9/10⌉ − 1.
	if got := s.Quantile(0.99); got != 124518 {
		t.Fatalf("p99 = %d, want 124518", got)
	}
	if got, want := s.Mean(), (90*100.0+10*100_000.0)/100; got != want {
		t.Fatalf("mean = %v, want %v", got, want)
	}
}

// TestHistogramQuantileInterpolates: observations spread evenly over
// one bucket read back their true quantiles, within 2%, not the
// bucket's upper bound; zeros read 0, and the bucket boundaries hold.
func TestHistogramQuantileInterpolates(t *testing.T) {
	var h Histogram
	for v := uint64(8192); v < 16384; v++ { // all of bucket 14
		h.Observe(v)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		// The true q-quantile of the 8,192 values: rank ⌈q·n⌉.
		want := 8192 + math.Ceil(q*8192) - 1
		if got := float64(s.Quantile(q)); math.Abs(got-want) > 0.02*want {
			t.Errorf("q=%v: %v, want %v within 2%%", q, got, want)
		}
	}
	if got := s.Quantile(1); got != 16383 {
		t.Errorf("p100 = %d, want the bucket's top 16383", got)
	}
	if got := s.Quantile(0); got != 8192 {
		t.Errorf("p0 = %d, want the bucket's bottom 8192", got)
	}
	var z Histogram
	z.Observe(0)
	z.Observe(0)
	if got := z.Snapshot().Quantile(0.99); got != 0 {
		t.Errorf("p99 of zeros = %d, want 0", got)
	}
}

func TestHistogramDelta(t *testing.T) {
	var h Histogram
	h.Observe(100)
	h.Observe(100)
	prev := h.Snapshot()
	h.Observe(100_000)
	d := h.Snapshot().Delta(prev)
	if d.Count != 1 || d.Sum != 100_000 {
		t.Fatalf("delta count=%d sum=%d, want 1/100000", d.Count, d.Sum)
	}
	if got := d.Quantile(0.99); got != 131071 {
		t.Fatalf("delta p99 = %d, want 131071 (the window must not see pre-window observations)", got)
	}
	if empty := h.Snapshot().Delta(h.Snapshot()); empty.Count != 0 || empty.Quantile(0.99) != 0 {
		t.Fatalf("idle-window delta not empty: %+v", empty)
	}
}

// TestConcurrentReadsWhileWriting locks the one-writer/many-reader
// contract under the race detector: a scrape concurrent with updates
// must be race-free.
func TestConcurrentReadsWhileWriting(t *testing.T) {
	var c Counter
	var g Gauge
	var h Histogram
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				c.Inc()
				g.Set(float64(c.Load()))
				h.Observe(c.Load())
			}
		}
	}()
	for i := 0; i < 1000; i++ {
		_ = c.Load()
		_ = g.Load()
		_ = h.Snapshot()
	}
	close(done)
	wg.Wait()
}

func TestObserveZeroAllocs(t *testing.T) {
	var c Counter
	var h Histogram
	if n := testing.AllocsPerRun(200, func() { c.Inc(); h.Observe(42) }); n != 0 {
		t.Fatalf("metric updates allocate %v objects per call, want 0", n)
	}
}

func TestTextWriterGolden(t *testing.T) {
	var h Histogram
	h.Observe(900) // bucket 10, upper bound 1023
	h.Observe(100) // bucket 7, upper bound 127

	var b strings.Builder
	tw := NewTextWriter(&b)
	tw.Counter("edgedrift_samples_total", "Samples processed.", nil, 7)
	tw.Counter("edgedrift_stream_samples_total", "Per-stream samples.", []Label{{"stream", "s-0"}}, 3)
	tw.Counter("edgedrift_stream_samples_total", "Per-stream samples.", []Label{{"stream", "s-1"}}, 4)
	tw.Gauge("edgedrift_streams", "Registered streams.", nil, 2)
	tw.Histogram("edgedrift_process_latency_seconds", "Sampled latency.", nil, h.Snapshot(), 1e-9)
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	want := `# HELP edgedrift_samples_total Samples processed.
# TYPE edgedrift_samples_total counter
edgedrift_samples_total 7
# HELP edgedrift_stream_samples_total Per-stream samples.
# TYPE edgedrift_stream_samples_total counter
edgedrift_stream_samples_total{stream="s-0"} 3
edgedrift_stream_samples_total{stream="s-1"} 4
# HELP edgedrift_streams Registered streams.
# TYPE edgedrift_streams gauge
edgedrift_streams 2
# HELP edgedrift_process_latency_seconds Sampled latency.
# TYPE edgedrift_process_latency_seconds histogram
edgedrift_process_latency_seconds_bucket{le="1.27e-07"} 1
edgedrift_process_latency_seconds_bucket{le="1.023e-06"} 2
edgedrift_process_latency_seconds_bucket{le="+Inf"} 2
edgedrift_process_latency_seconds_sum 1e-06
edgedrift_process_latency_seconds_count 2
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestTextWriterSkipsLeadingEmptyBuckets(t *testing.T) {
	var b strings.Builder
	tw := NewTextWriter(&b)
	tw.Histogram("m", "h.", nil, HistogramSnapshot{}, 1)
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	// Empty histogram: only the +Inf bucket, sum and count lines.
	got := b.String()
	if strings.Count(got, "_bucket") != 1 {
		t.Fatalf("empty histogram exposition:\n%s", got)
	}
	if !strings.Contains(got, `le="+Inf"} 0`) || !strings.Contains(got, "m_count 0") {
		t.Fatalf("empty histogram exposition:\n%s", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	var b strings.Builder
	tw := NewTextWriter(&b)
	tw.Counter("m", "h.", []Label{{"stream", "a\"b\\c\nd"}}, 1)
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `m{stream="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong:\n%s", b.String())
	}
}
