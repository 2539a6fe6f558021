package livewatch

import (
	"os"
	"reflect"
	"testing"

	"cryptodrop/internal/core"
	"cryptodrop/internal/indicator"
)

func TestPlantHoneyfilesIdempotent(t *testing.T) {
	dir := t.TempDir()
	first, err := PlantHoneyfiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(honeyfileNames) {
		t.Fatalf("planted %d decoys, want %d", len(first), len(honeyfileNames))
	}
	for _, p := range first {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("decoy %s not on disk: %v", p, err)
		}
	}
	second, err := PlantHoneyfiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replant returned different paths: %v vs %v", first, second)
	}
}

// TestHoneyfileAlertsFeeder wires planted decoys into a live session: one
// modification of a decoy alerts instantly, attributed to the honeyfile
// indicator — the content-free signal a payload-blind watcher keeps even
// when every content measurement is unavailable.
func TestHoneyfileAlertsFeeder(t *testing.T) {
	dir := writeTree(t, 6)
	decoys, err := PlantHoneyfiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig("")
	cfg.Indicators = indicator.Default().With(indicator.NewHoneyfile(decoys...))
	var alerts []core.Detection
	cfg.OnDetection = func(d core.Detection) { alerts = append(alerts, d) }
	f, sess := newFeeder(t, &cfg)

	encryptFile(t, decoys[0])
	content, err := os.ReadFile(decoys[0])
	if err != nil {
		t.Fatal(err)
	}
	change(t, f, decoys[0], content, EventModified)

	if len(sess.Detections()) != 1 || len(alerts) != 1 {
		t.Fatalf("decoy touch did not alert (detections=%d, alerts=%d)", len(sess.Detections()), len(alerts))
	}
	if rep := report(sess); rep.IndicatorPoints[core.IndicatorHoneyfile] <= 0 {
		t.Fatalf("alert not attributed to honeyfile: %v", rep.IndicatorPoints)
	}
}
