package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cryptodrop"
	"cryptodrop/internal/host"
	"cryptodrop/internal/server"
	"cryptodrop/internal/server/config"
	"cryptodrop/internal/server/wire"
	"cryptodrop/internal/telemetry"
)

// writeTenants writes the e2e tenant table into a temporary directory and
// returns its path.
func writeTenants(t *testing.T) string {
	t.Helper()
	cfgPath := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(cfgPath, []byte(e2eTenants), 0o644); err != nil {
		t.Fatal(err)
	}
	return cfgPath
}

// encryptionOps builds n in-place encryptions by pid of the /docs files
// with IDs first..first+n-1: low-entropy prose rewritten as a seeded
// xorshift keystream.
func encryptionOps(pid int, first uint64, n int) []cryptodrop.Op {
	ops := make([]cryptodrop.Op, 0, n)
	for id := first; id < first+uint64(n); id++ {
		line := fmt.Sprintf("file %d: the quick brown fox jumps over the lazy dog.\n", id)
		plain := bytes.Repeat([]byte(line), 4096/len(line)+1)[:4096]
		cipher := make([]byte, len(plain))
		state := id*2654435761 + 0x9e3779b97f4a7c15
		for j := range cipher {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			cipher[j] = byte(state)
		}
		ops = append(ops, cryptodrop.OpWrite(pid, fmt.Sprintf("/docs/f%04d.txt", id), id, plain, cipher))
	}
	return ops
}

// sessionAck fetches the server's ack for a session without sending ops.
func sessionAck(t *testing.T, base, token, session string) wire.Ack {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/session?session="+session, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack wire.Ack
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session query: HTTP %d: %s", resp.StatusCode, ack.Error)
	}
	return ack
}

// TestTracerRecordsSessionSpans pins that Options.Tracer reaches the
// engines of streamed sessions: with one-in-one sampling, op and measure
// spans land on the tracer under the session's lane, and the measure spans
// say how the host's memo cache served them — a store for the first
// session's contents, a hit for the second session's identical stream.
func TestTracerRecordsSessionSpans(t *testing.T) {
	loader, err := config.Load(writeTenants(t))
	if err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.NewSpanTracer(1<<16, 1)
	srv := server.New(host.New(host.Config{}), loader, server.Options{ProtectedRoot: "/docs", Tracer: tracer})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	ops := encryptionOps(100, 1, 6)
	for _, session := range []string{"first", "second"} {
		st := mustStream(t, ctx, ts.URL, "tok-alpha", session)
		if err := st.Submit(ctx, ops...); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}

	count := map[string]int{}
	for _, sp := range tracer.Spans() {
		switch {
		case strings.HasPrefix(sp.Name, "op "):
			count["op "+sp.Lane]++
		case sp.Name == "measure":
			if !strings.Contains(sp.Detail, "memo=") {
				t.Errorf("measure span without memo detail: %q", sp.Detail)
			}
			if strings.Contains(sp.Detail, "memo=store") {
				count["store "+sp.Lane]++
			}
			if strings.Contains(sp.Detail, "memo=hit") {
				count["hit "+sp.Lane]++
			}
		}
	}
	for _, k := range []string{"op alpha/first", "op alpha/second", "store alpha/first", "hit alpha/second"} {
		if count[k] == 0 {
			t.Errorf("no %q spans recorded; counts %v", k, count)
		}
	}
}

// TestAckDetectionsMatchSession pins the ack's detection count against the
// session's detection list: after streaming (once every op is applied),
// after a flush, and after a drain and a restart with Restore.
func TestAckDetectionsMatchSession(t *testing.T) {
	cfgPath := writeTenants(t)
	ckptDir := t.TempDir()
	svc := startService(t, cfgPath, ckptDir, false)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Two families, so the session raises more than one detection.
	const n = 40
	ops := append(encryptionOps(100, 1, n/2), encryptionOps(200, 1001, n/2)...)
	st := mustStream(t, ctx, svc.http.URL, "tok-alpha", "docs")
	if err := st.Submit(ctx, ops...); err != nil {
		t.Fatal(err)
	}
	sess, ok := svc.host.Get("alpha/docs")
	if !ok {
		t.Fatal("no host session for alpha/docs")
	}
	check := func(stage string, got int64, sess *host.Session) {
		t.Helper()
		if want := int64(len(sess.Detections())); got != want || want < 2 {
			t.Fatalf("%s: ack reports %d detections, session has %d (want equal, at least 2)", stage, got, want)
		}
	}
	// A session query once the queue has applied every op.
	for sess.Ingested() < n {
		time.Sleep(time.Millisecond)
	}
	check("after streaming", sessionAck(t, svc.http.URL, "tok-alpha", "docs").Detections, sess)
	flushAck, err := st.Flush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	check("after flush", flushAck.Detections, sess)
	before := flushAck.Detections

	if _, err := svc.srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	svc.http.Close()
	svc2 := startService(t, cfgPath, ckptDir, true)
	defer svc2.http.Close()
	restored, err := mustStream(t, ctx, svc2.http.URL, "tok-alpha", "docs").Flush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sess2, ok := svc2.host.Get("alpha/docs")
	if !ok {
		t.Fatal("no restored host session for alpha/docs")
	}
	check("after restore", restored.Detections, sess2)
	if restored.Detections != before {
		t.Fatalf("restored ack reports %d detections, %d before the restart", restored.Detections, before)
	}
}
