package host_test

import (
	"context"
	"fmt"

	"cryptodrop/internal/core"
	"cryptodrop/internal/host"
)

// ExampleHost_Open scores a simulated bulk encryption through a hosted
// session: each file's previous version travels in Op.Pre, the encrypted
// rewrite in Op.Post, so the engine needs no filesystem at all.
func ExampleHost_Open() {
	var detected bool
	ecfg := core.DefaultConfig("/docs")
	ecfg.NonUnionThreshold = 100
	ecfg.NewCipherWithoutDelta = true // payloads are not observed, only content
	ecfg.OnDetection = func(core.Detection) { detected = true }

	h := host.New(host.Config{})
	sess, err := h.Open("tenant-a", host.SessionConfig{Engine: ecfg})
	if err != nil {
		fmt.Println("open:", err)
		return
	}
	ctx := context.Background()

	// "Ransomware" rewrites twelve documents as keystream bytes. Each file
	// contributes two ops: a baseline-only op snapshotting the original
	// (zero Event.Kind — nothing is scored) and the completed rewrite.
	state := uint64(1)
	for i := 0; i < 12; i++ {
		id := uint64(i + 1)
		path := fmt.Sprintf("/docs/doc%02d.txt", i)
		var content []byte
		for line := 0; len(content) < 2048; line++ {
			content = append(content, []byte(fmt.Sprintf(
				"day %d line %d: meeting summary, expense total %d, follow-up %x.\n",
				i, line, line*73+i, line*line))...)
		}
		enc := make([]byte, 2048)
		for j := range enc {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			enc[j] = byte(state)
		}
		err := sess.Submit(ctx,
			host.Op{
				PreEvent: &core.Event{
					Kind: core.EvOpen, PID: 7, Path: path, FileID: id,
					Flags: core.EvWriteIntent, Size: int64(len(content)),
				},
				Pre: map[uint64][]byte{id: content},
			},
			host.Op{
				Event: core.Event{
					Kind: core.EvClose, PID: 7, Path: path, FileID: id, Wrote: true,
				},
				Post: map[uint64][]byte{id: enc},
			})
		if err != nil {
			fmt.Println("submit:", err)
			return
		}
	}

	reports, err := h.Shutdown(ctx)
	if err != nil {
		fmt.Println("shutdown:", err)
		return
	}
	fmt.Println("detected:", detected)
	fmt.Println("ops ingested:", reports[0].Ingested)
	// Output:
	// detected: true
	// ops ingested: 24
}
