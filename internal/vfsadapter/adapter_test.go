package vfsadapter

import (
	"testing"

	"cryptodrop/internal/core"
	"cryptodrop/internal/host"
	"cryptodrop/internal/vfs"
)

// TestEventFromOpMapsEveryKind pins the op→event kind table: every vfs
// operation kind must translate, and to the event kind of the same name.
func TestEventFromOpMapsEveryKind(t *testing.T) {
	kinds := []vfs.OpKind{
		vfs.OpCreate, vfs.OpOpen, vfs.OpRead, vfs.OpWrite,
		vfs.OpClose, vfs.OpDelete, vfs.OpRename,
	}
	for _, k := range kinds {
		ev := EventFromOp(&vfs.Op{Kind: k})
		if ev.Kind == 0 {
			t.Fatalf("op kind %v maps to no event kind", k)
		}
		if got, want := ev.Kind.String(), k.String(); got != want {
			t.Fatalf("op kind %v maps to event kind %v", want, got)
		}
	}
}

// TestEventFromOpFields pins the field-for-field translation, including the
// open-flag bits the engine's snapshot pass depends on.
func TestEventFromOpFields(t *testing.T) {
	data := []byte{1, 2, 3}
	op := &vfs.Op{
		Kind:       vfs.OpRename,
		PID:        42,
		Path:       "/docs/a.txt",
		NewPath:    "/docs/a.txt.locked",
		FileID:     7,
		ReplacedID: 9,
		Data:       data,
		Offset:     128,
		Size:       4096,
		Flags:      vfs.WriteOnly | vfs.Create | vfs.Truncate,
		Wrote:      true,
	}
	ev := EventFromOp(op)
	if ev.Kind != core.EvRename || ev.PID != 42 ||
		ev.Path != "/docs/a.txt" || ev.NewPath != "/docs/a.txt.locked" ||
		ev.FileID != 7 || ev.ReplacedID != 9 ||
		ev.Offset != 128 || ev.Size != 4096 || !ev.Wrote {
		t.Fatalf("translated event %+v loses op fields", ev)
	}
	if &ev.Data[0] != &data[0] {
		t.Fatal("payload must be shared, not copied")
	}
	want := core.EvWriteIntent | core.EvCreateIntent | core.EvTruncate
	if ev.Flags != want {
		t.Fatalf("flags = %b, want %b", ev.Flags, want)
	}
	if ro := EventFromOp(&vfs.Op{Kind: vfs.OpOpen, Flags: vfs.ReadOnly}); ro.Flags != core.EvReadIntent {
		t.Fatalf("ReadOnly maps to %b", ro.Flags)
	}
	if ap := EventFromOp(&vfs.Op{Kind: vfs.OpOpen, Flags: vfs.Append | vfs.WriteOnly}); ap.Flags != core.EvAppend|core.EvWriteIntent {
		t.Fatalf("Append|WriteOnly maps to %b", ap.Flags)
	}
}

// TestFilterDrivesEngine wires a real filesystem through the adapter and
// checks operations reach the session's scoreboard through its ingest path.
func TestFilterDrivesEngine(t *testing.T) {
	const root = "/Users/victim/Documents"
	fsys := vfs.New()
	if err := fsys.MkdirAll(root); err != nil {
		t.Fatal(err)
	}
	if err := fsys.WriteFile(0, root+"/a.txt", []byte("plain text content, plain text content")); err != nil {
		t.Fatal(err)
	}
	sess, err := host.New(host.Config{}).Open("s", host.SessionConfig{
		Engine: core.DefaultConfig(root), Direct: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := New(fsys, sess)
	if f.Name() != "cryptodrop" {
		t.Fatalf("filter name %q", f.Name())
	}
	fsys.SetInterceptor(f)
	if err := fsys.Delete(5, root+"/a.txt"); err != nil {
		t.Fatal(err)
	}
	rep, ok := sess.Report(5)
	if !ok || rep.Deletes != 1 {
		t.Fatalf("deletion did not reach the engine: ok=%v rep=%+v", ok, rep)
	}
	if rep.Score != core.DefaultPoints().Deletion {
		t.Fatalf("score %.1f, want %.1f", rep.Score, core.DefaultPoints().Deletion)
	}
	if got := sess.Ingested(); got != 1 {
		t.Fatalf("session ingested %d ops, want 1", got)
	}
}
