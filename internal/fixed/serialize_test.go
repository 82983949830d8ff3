package fixed

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"edgedrift/internal/ckpt"
	"edgedrift/internal/core"
)

// TestSaveLoadBitIdenticalContinuation is the QFIX01 contract: save a
// mid-stream monitor, load it, and the resumed copy must produce
// bit-identical results to the original on every subsequent sample —
// including across a drift detection.
func TestSaveLoadBitIdenticalContinuation(t *testing.T) {
	det, r := calibratedFloatDetector(t, 42)
	mon := QuantizeDetector(det)

	// Drive the monitor partway, ending mid-window so the checkpoint
	// carries non-trivial state-machine and centroid state.
	for i := 0; i < 137; i++ {
		mon.Process(monSample(r, i%monClasses, 0))
	}
	if !mon.check || len(mon.events) != 0 {
		t.Fatalf("checkpoint not mid-window before any detection: check=%v events=%v", mon.check, mon.events)
	}

	var buf bytes.Buffer
	if err := mon.Save(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := LoadMonitor(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// The same post-checkpoint samples through both copies, shifted so
	// drifts fire.
	var post [][]float64
	for i := 0; i < 120; i++ {
		post = append(post, monSample(r, i%monClasses, 5))
	}
	var want, got []core.Result
	for _, x := range post {
		want = append(want, mon.Process(x))
		got = append(got, resumed.Process(x))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed monitor diverged from the original after load")
	}
	if len(mon.Events()) != 1 {
		t.Fatalf("events %v: the continuation must cross one detection", mon.Events())
	}
	if mon.samples != resumed.samples || mon.sat != resumed.sat {
		t.Fatalf("counters diverged: samples %d/%d sat %d/%d",
			mon.samples, resumed.samples, mon.sat, resumed.sat)
	}
	if !reflect.DeepEqual(mon.Events(), resumed.Events()) {
		t.Fatalf("event logs diverged: %v vs %v", mon.Events(), resumed.Events())
	}

	// Save-load-save byte identity: the artifact is deterministic.
	var buf2 bytes.Buffer
	if err := LoadedCopySave(t, buf.Bytes(), &buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("save-load-save is not byte-identical")
	}
}

// LoadedCopySave loads an artifact and re-saves it, for byte-identity
// checks.
func LoadedCopySave(t *testing.T, art []byte, w *bytes.Buffer) error {
	t.Helper()
	mon, err := LoadMonitor(bytes.NewReader(art))
	if err != nil {
		return err
	}
	return mon.Save(w)
}

// TestLoadCorruptionQFIX flips every byte of the artifact in turn and
// truncates it at several lengths; every damage must fail with
// ErrBadFormat, never a panic or a silently-wrong monitor.
func TestLoadCorruptionQFIX(t *testing.T) {
	det, _ := calibratedFloatDetector(t, 7)
	var buf bytes.Buffer
	if err := QuantizeDetector(det).Save(&buf); err != nil {
		t.Fatal(err)
	}
	art := buf.Bytes()
	for pos := 0; pos < len(art); pos++ {
		bad := append([]byte(nil), art...)
		bad[pos] ^= 0x40
		if _, err := LoadMonitor(bytes.NewReader(bad)); !errors.Is(err, ckpt.ErrBadFormat) {
			t.Fatalf("flip at byte %d: err = %v, want ErrBadFormat", pos, err)
		}
	}
	for _, n := range []int{0, 3, 6, 10, len(art) / 2, len(art) - 1} {
		if _, err := LoadMonitor(bytes.NewReader(art[:n])); !errors.Is(err, ckpt.ErrBadFormat) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrBadFormat", n, err)
		}
	}
}

// FuzzLoadMonitor is the QFIX01 decoder's crash-resistance harness:
// arbitrary bytes must either load into a monitor whose re-saved
// artifact loads again, or fail with ckpt.ErrBadFormat — never panic.
func FuzzLoadMonitor(f *testing.F) {
	det, r := calibratedFloatDetector(f, 9)
	mon := QuantizeDetector(det)
	for i := 0; i < 60; i++ {
		mon.Process(monSample(r, i%monClasses, 2.5))
	}
	var buf bytes.Buffer
	if err := mon.Save(&buf); err != nil {
		f.Fatal(err)
	}
	art := buf.Bytes()
	f.Add(art)
	f.Add(art[:len(art)/2])
	f.Add(art[:len(art)-4]) // footer missing
	f.Add([]byte("QFIX01"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := LoadMonitor(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ckpt.ErrBadFormat) {
				t.Fatalf("load error %v does not match ckpt.ErrBadFormat", err)
			}
			return
		}
		var out bytes.Buffer
		if err := st.Save(&out); err != nil {
			t.Fatalf("loaded stage cannot re-save: %v", err)
		}
		if _, err := LoadMonitor(&out); err != nil {
			t.Fatalf("re-saved stage does not load: %v", err)
		}
	})
}
