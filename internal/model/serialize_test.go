package model

import (
	"bytes"
	"testing"

	"edgedrift/internal/oselm"
	"edgedrift/internal/rng"
)

func TestMultiSaveLoadRoundTrip(t *testing.T) {
	m, xs, labels := newTrained(t, 50)
	var buf bytes.Buffer
	n, err := m.Save(&buf, oselm.Float64)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Classes() != m.Classes() {
		t.Fatalf("classes %d vs %d", got.Classes(), m.Classes())
	}
	c := got.Config()
	if c.Inputs != 4 || c.Hidden != 6 {
		t.Fatalf("config %+v", c)
	}
	// Identical predictions and scores across the training data.
	for i, x := range xs {
		la, sa := m.Predict(x)
		lb, sb := got.Predict(x)
		if la != lb || sa != sb {
			t.Fatalf("sample %d (label %d): (%d,%v) vs (%d,%v)", i, labels[i], la, sa, lb, sb)
		}
	}
	// Continued sequential training stays in lockstep.
	m.Train(xs[0], labels[0])
	got.Train(xs[0], labels[0])
	_, sa := m.Predict(xs[1])
	_, sb := got.Predict(xs[1])
	if sa != sb {
		t.Fatalf("post-load training diverged: %v vs %v", sa, sb)
	}
}

func TestMultiSaveLoadFloat32(t *testing.T) {
	m, xs, _ := newTrained(t, 51)
	var buf bytes.Buffer
	if _, err := m.Save(&buf, oselm.Float32); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for _, x := range xs {
		la, _ := m.Predict(x)
		lb, _ := got.Predict(x)
		if la == lb {
			agree++
		}
	}
	if float64(agree)/float64(len(xs)) < 0.999 {
		t.Fatalf("float32 deployment changed %d/%d labels", len(xs)-agree, len(xs))
	}
}

func TestMultiLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("garbage stream xxxxxx"))); err == nil {
		t.Fatal("expected format error")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error on empty stream")
	}
}

func TestMultiLoadRejectsTruncated(t *testing.T) {
	m, _, _ := newTrained(t, 52)
	var buf bytes.Buffer
	if _, err := m.Save(&buf, oselm.Float64); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Load(bytes.NewReader(data[:len(data)-100])); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestMultiLoadRejectsAbsurdClassCount(t *testing.T) {
	buf := append([]byte("MULTI2"), 0xff, 0xff, 0xff, 0x7f)
	if _, err := Load(bytes.NewReader(buf)); err == nil {
		t.Fatal("expected class-count rejection")
	}
	_ = rng.New(0) // keep import symmetry with sibling tests
}
