package trace

import (
	"bytes"
	"context"
	"encoding/base64"
	"reflect"
	"testing"

	"cryptodrop/internal/core"
	"cryptodrop/internal/host"
	"cryptodrop/internal/telemetry"
	"cryptodrop/internal/vfs"
)

// edgeSeed is the pre-trace store of the edge-record stream.
var edgeSeed = []struct {
	path    string
	id      uint64
	content []byte
}{
	{"/docs/a.txt", 1, bytes.Repeat([]byte("alpha: the quick brown fox jumps over the lazy dog. "), 40)},
	{"/docs/b.txt", 2, bytes.Repeat([]byte("bravo: pack my box with five dozen liquor jugs. "), 40)},
	{"/docs/c.txt", 3, bytes.Repeat([]byte("charlie: sphinx of black quartz, judge my vow. "), 40)},
}

// edgeRecords is one hand-built stream holding every record shape the
// walk treats specially; edgeSkipped counts the records it must skip.
func edgeRecords() []Record {
	cipher := make([]byte, len(edgeSeed[0].content))
	x := uint32(2463534242)
	for i := range cipher {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		cipher[i] = byte(x)
	}
	b64 := base64.StdEncoding.EncodeToString
	recs := []Record{
		// Unseeded path without create intent: pre-state unknown, skipped.
		{Op: "open", Path: "/never/existed", FileID: 9, Flags: int(vfs.WriteOnly)},
		// Unseeded path with create intent: registered empty, applied.
		{Op: "open", Path: "/docs/new.txt", FileID: 10, Flags: int(vfs.WriteOnly | vfs.Create)},
		{Op: "write", Path: "/docs/new.txt", FileID: 10, Size: 5, DataB64: b64([]byte("fresh"))},
		{Op: "close", Path: "/docs/new.txt", FileID: 10, Size: 5, Wrote: true},
		{Op: "create", Path: "/docs/made.txt", FileID: 11, Flags: int(vfs.WriteOnly | vfs.Create)},
		// Undecodable payloads: skipped.
		{Op: "read", Path: "/docs/a.txt", FileID: 1, DataB64: "not base64!"},
		{Op: "write", Path: "/docs/a.txt", FileID: 1, DataB64: "not base64!"},
		// A read handle over b, with its payload.
		{Op: "open", Path: "/docs/b.txt", FileID: 2, Flags: int(vfs.ReadOnly), Size: int64(len(edgeSeed[1].content))},
		{Op: "read", Path: "/docs/b.txt", FileID: 2, Size: int64(len(edgeSeed[1].content)), DataB64: b64(edgeSeed[1].content)},
		{Op: "close", Path: "/docs/b.txt", FileID: 2, Size: int64(len(edgeSeed[1].content))},
		// Truncating write-open: the record carries the post-truncation size.
		{Op: "open", Path: "/docs/a.txt", FileID: 1, Flags: int(vfs.WriteOnly | vfs.Truncate)},
		{Op: "write", Path: "/docs/a.txt", FileID: 1, Size: int64(len(cipher)), DataB64: b64(cipher)},
		{Op: "close", Path: "/docs/a.txt", FileID: 1, Size: int64(len(cipher)), Wrote: true},
		// Rename over an existing file.
		{Op: "rename", Path: "/docs/a.txt", NewPath: "/docs/b.txt", FileID: 1, ReplacedID: 2, Size: int64(len(cipher))},
		// Close of a file deleted while its handle was open.
		{Op: "open", Path: "/docs/c.txt", FileID: 3, Flags: int(vfs.WriteOnly), Size: int64(len(edgeSeed[2].content))},
		{Op: "delete", Path: "/docs/c.txt", FileID: 3},
		{Op: "close", Path: "/docs/c.txt", FileID: 3, Wrote: true},
	}
	for i := range recs {
		recs[i].Seq = int64(i + 1)
		recs[i].PID = 7
	}
	return recs
}

const edgeSkipped = 3

func edgeReplayer() *EventReplayer {
	r := NewEventReplayer()
	for _, f := range edgeSeed {
		r.Seed(f.path, f.id, f.content)
	}
	return r
}

// TestWalkEdgeRecords pins the three consumers of the record walk to each
// other on the records they treat specially: Replay, Advance and
// BuildHostOps agree on what is applied, Advance leaves the same store as
// Replay, the staged ops carry the pre-truncation size and the old bytes,
// both sides of a rename and no Post for a deleted file, and a direct host
// session fed the ops reaches the bare engine's reports, detections and
// flight trace.
func TestWalkEdgeRecords(t *testing.T) {
	records := edgeRecords()
	want := ReplayResult{Applied: len(records) - edgeSkipped, Skipped: edgeSkipped}

	replayed := edgeReplayer()
	fr := telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity)
	cfg := core.DefaultConfig("/docs")
	cfg.FlightRecorder = fr
	eng := core.New(cfg, replayed)
	rr, err := replayed.Replay(eng, records)
	if err != nil {
		t.Fatal(err)
	}
	advanced := edgeReplayer()
	ar := advanced.Advance(records)
	built := edgeReplayer()
	ops, br := built.BuildHostOps(records)
	for name, got := range map[string]ReplayResult{"Replay": rr, "Advance": ar, "BuildHostOps": br} {
		if got != want {
			t.Errorf("%s = %+v, want %+v", name, got, want)
		}
	}
	if len(ops) != want.Applied {
		t.Fatalf("BuildHostOps built %d ops, want %d", len(ops), want.Applied)
	}

	for _, id := range []uint64{1, 2, 3, 9, 10, 11} {
		wantC, wantErr := replayed.Content(id)
		for name, r := range map[string]*EventReplayer{"Advance": advanced, "BuildHostOps": built} {
			got, err := r.Content(id)
			if (err != nil) != (wantErr != nil) || !bytes.Equal(got, wantC) {
				t.Errorf("%s store id %d = %q, %v; Replay's = %q, %v", name, id, got, err, wantC, wantErr)
			}
		}
	}
	if _, err := replayed.Content(2); err == nil {
		t.Error("the file replaced by the rename is still in the store")
	}

	opFor := func(kind core.EventKind, id uint64, flags core.EventFlag) *host.Op {
		t.Helper()
		for i := range ops {
			ev := ops[i].Event
			if ev.Kind == kind && ev.FileID == id && ev.Flags&flags == flags {
				return &ops[i]
			}
		}
		t.Fatalf("no op of kind %v for id %d", kind, id)
		return nil
	}
	trunc := opFor(core.EvOpen, 1, core.EvTruncate)
	if trunc.PreEvent == nil || trunc.PreEvent.Size != int64(len(edgeSeed[0].content)) || trunc.Event.Size != 0 {
		t.Errorf("truncating open: PreEvent %+v, Event size %d; want PreEvent size %d", trunc.PreEvent, trunc.Event.Size, len(edgeSeed[0].content))
	}
	if len(trunc.Pre) != 1 || !bytes.Equal(trunc.Pre[1], edgeSeed[0].content) {
		t.Errorf("truncating open staged Pre %d IDs, %d bytes for id 1; want only the old bytes", len(trunc.Pre), len(trunc.Pre[1]))
	}
	rename := opFor(core.EvRename, 1, 0)
	if _, ok := rename.Pre[1]; len(rename.Pre) != 2 || !ok || !bytes.Equal(rename.Pre[2], edgeSeed[1].content) {
		t.Errorf("rename staged %d IDs; want both sides, 1 and 2", len(rename.Pre))
	}
	if closed := opFor(core.EvClose, 3, 0); closed.Post != nil {
		t.Errorf("close of a deleted file staged Post %v", closed.Post)
	}

	h := host.New(host.Config{})
	hfr := telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity)
	hcfg := core.DefaultConfig("/docs")
	hcfg.FlightRecorder = hfr
	ctx := context.Background()
	sess, err := h.Open("edge", host.SessionConfig{Engine: hcfg, Direct: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(ctx, ops...); err != nil {
		t.Fatal(err)
	}
	got, err := h.CloseSession(ctx, "edge")
	if err != nil {
		t.Fatal(err)
	}
	reports := eng.Reports()
	if len(reports) == 0 || reports[0].Score == 0 {
		t.Fatalf("the stream scored nothing: %+v", reports)
	}
	if !reflect.DeepEqual(got.Reports, reports) {
		t.Errorf("reports diverge:\n engine: %+v\n host:   %+v", reports, got.Reports)
	}
	if !reflect.DeepEqual(got.Detections, eng.Detections()) {
		t.Errorf("detections diverge:\n engine: %+v\n host:   %+v", eng.Detections(), got.Detections)
	}
	if want, got := fr.Trace(7), hfr.Trace(7); !reflect.DeepEqual(want, got) {
		t.Errorf("flight traces diverge:\n engine: %+v\n host:   %+v", want, got)
	}
}

// TestRenameFromUnknownOverStoredFile renames a file the store does not
// hold over one it does: the replaced content leaves the store, and the
// new path names a file of unknown content, so a later open of it without
// create intent is skipped like any other unknown file.
func TestRenameFromUnknownOverStoredFile(t *testing.T) {
	r := edgeReplayer()
	records := []Record{
		{Op: "rename", Path: "/elsewhere/x.tmp", NewPath: "/docs/b.txt", FileID: 50, ReplacedID: 2},
		{Op: "open", Path: "/docs/b.txt", FileID: 50, Flags: int(vfs.ReadOnly)},
	}
	if got, want := r.Advance(records), (ReplayResult{Applied: 1, Skipped: 1}); got != want {
		t.Errorf("Advance = %+v, want %+v", got, want)
	}
	if _, err := r.Content(2); err == nil {
		t.Error("the file replaced by the rename is still in the store")
	}
}
