package edgedrift_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"edgedrift"
	"edgedrift/internal/fixed"
)

// The checkpoint byte contract: the SHA-256 of what each live format's
// Save writes for a fixed fixture. The hashes were recorded before the
// checkpoint framing moved into internal/ckpt, so they prove the move
// changed no byte. Like the golden fingerprints they assume amd64
// floating point; the fixture never runs the f32 kernels, whose FMA
// assembly path is CPU-dependent.
const (
	pinMonitorF64  = "a95b375aa97f1cf99dcc8ab9852954afbc0dcf4d96e03b8ab09b47b88b31eaa4"
	pinMonitorF32  = "1f6e4898b6cb09cd87316f0d9b878dfebd9c7cfabf903dc3540736298944e891"
	pinQFIX01      = "3a21ef55440f4990eaf1629c2bcf43bc93a0cf627fb32d3505921797024b5a8c"
	pinFLEET4Mixed = "ff66b9e9fa2e90b31884b6426e75ab85ddaa0844a1cf117df09770a29741499e"
)

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// pinArtifacts builds the pinned fixture: an f64 monitor with live
// stream state saved at both wires, its Q16.16 port saved as QFIX01, and
// a FLEET4 fleet holding a plain monitor, the Q16.16 stage and a member
// demoted to f32.
func pinArtifacts(t *testing.T) map[string][]byte {
	t.Helper()
	fx := newFleetFixture(t)
	head := fx.stream[:500]
	mon := fx.monitor(t, 60)
	for _, x := range head {
		mon.Process(x)
	}
	out := make(map[string][]byte)
	for name, prec := range map[string]edgedrift.Precision{"monitor-f64": edgedrift.Float64, "monitor-f32": edgedrift.Float32} {
		var buf bytes.Buffer
		if err := mon.Save(&buf, prec); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}

	q16, err := fx.monitor(t, 61).QuantizeQ16()
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range head {
		q16.Process(x)
	}
	var qbuf bytes.Buffer
	if err := q16.(*fixed.Monitor).Save(&qbuf); err != nil {
		t.Fatal(err)
	}
	out["qfix01"] = qbuf.Bytes()

	fl := edgedrift.NewFleet(edgedrift.FleetConfig{})
	if err := fl.Add("plain", mon); err != nil {
		t.Fatal(err)
	}
	if err := fl.AddStage("q16", q16); err != nil {
		t.Fatal(err)
	}
	if err := fl.Add("demoted", fx.monitor(t, 62)); err != nil {
		t.Fatal(err)
	}
	if _, err := fl.ProcessBatch("demoted", head); err != nil {
		t.Fatal(err)
	}
	if err := fl.DemoteMember("demoted", edgedrift.Float32); err != nil {
		t.Fatal(err)
	}
	var fbuf bytes.Buffer
	if err := fl.Save(&fbuf, edgedrift.Float64); err != nil {
		t.Fatal(err)
	}
	out["fleet4"] = fbuf.Bytes()
	return out
}

// TestSaveBytesPinned locks every float-side and fleet Save to the bytes
// it wrote before the framing refactor.
func TestSaveBytesPinned(t *testing.T) {
	arts := pinArtifacts(t)
	for name, want := range map[string]string{
		"monitor-f64": pinMonitorF64,
		"monitor-f32": pinMonitorF32,
		"qfix01":      pinQFIX01,
		"fleet4":      pinFLEET4Mixed,
	} {
		if got := sha(arts[name]); got != want {
			t.Errorf("%s: Save bytes drifted: sha256 %s, want %s", name, got, want)
		}
	}
}

// TestRetiredMagicsRejected feeds every retired checkpoint version to the
// public loaders, both as a complete artifact with the old magic written
// over the live one and cut off just after the magic. Only the version
// Save writes loads; every other one fails as ErrBadFormat.
func TestRetiredMagicsRejected(t *testing.T) {
	arts := pinArtifacts(t)
	mon, fl := arts["monitor-f64"], arts["fleet4"]
	cases := []struct {
		retired, live string
		art           []byte
		load          func([]byte) error
	}{
		{"OSELM1", "OSELM3", mon, loadMonitor},
		{"OSELM2", "OSELM3", mon, loadMonitor},
		{"MULTI1", "MULTI2", mon, loadMonitor},
		{"EDDET1", "EDDET3", mon, loadMonitor},
		{"EDDET2", "EDDET3", mon, loadMonitor},
		{"FLEET1", "FLEET4", fl, loadFleet},
		{"FLEET2", "FLEET4", fl, loadFleet},
		{"FLEET3", "FLEET4", fl, loadFleet},
	}
	for _, tc := range cases {
		t.Run(tc.retired, func(t *testing.T) {
			at := bytes.Index(tc.art, []byte(tc.live))
			if at < 0 {
				t.Fatalf("artifact holds no %s magic", tc.live)
			}
			whole := append([]byte(nil), tc.art...)
			copy(whole[at:], tc.retired)
			end := at + len(tc.retired)
			for name, data := range map[string][]byte{
				"whole":              whole,
				"cut after magic":    whole[:end],
				"cut 3 bytes beyond": whole[:end+3],
			} {
				if err := tc.load(data); !errors.Is(err, edgedrift.ErrBadFormat) {
					t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
				}
			}
		})
	}
}

func loadMonitor(b []byte) error {
	_, err := edgedrift.LoadMonitor(bytes.NewReader(b))
	return err
}

func loadFleet(b []byte) error {
	_, err := edgedrift.LoadFleet(bytes.NewReader(b), edgedrift.FleetConfig{})
	return err
}
