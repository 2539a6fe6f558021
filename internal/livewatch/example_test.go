package livewatch_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"cryptodrop/internal/core"
	"cryptodrop/internal/host"
	"cryptodrop/internal/livewatch"
)

// ExampleFeeder scores a simulated bulk encryption of a real directory
// through a synchronous host session, feeding each change by hand.
func ExampleFeeder() {
	dir, err := os.MkdirTemp("", "livewatch-example-")
	if err != nil {
		fmt.Println("tempdir:", err)
		return
	}
	defer os.RemoveAll(dir)

	// A handful of user documents.
	var paths []string
	for i := 0; i < 12; i++ {
		p := filepath.Join(dir, fmt.Sprintf("doc%02d.txt", i))
		var content []byte
		for line := 0; len(content) < 2048; line++ {
			content = append(content, []byte(fmt.Sprintf(
				"day %d line %d: meeting summary, expense total %d, follow-up %x.\n",
				i, line, line*73+i, line*line))...)
		}
		if err := os.WriteFile(p, content, 0o644); err != nil {
			fmt.Println("write:", err)
			return
		}
		paths = append(paths, p)
	}

	alerted := false
	ecfg := core.DefaultConfig("")
	ecfg.NonUnionThreshold = 100
	ecfg.OnDetection = func(core.Detection) { alerted = true }
	sc := livewatch.FeederSessionConfig(&ecfg)
	sc.Direct = true // score every change before Submit returns
	h := host.New(host.Config{})
	defer h.Shutdown(context.Background())
	sess, err := h.Open("docs", sc)
	if err != nil {
		fmt.Println("open:", err)
		return
	}
	f := livewatch.NewFeeder(sess)
	ctx := context.Background()
	if err := f.PrimeTree(ctx, dir); err != nil {
		fmt.Println("prime:", err)
		return
	}

	// "Ransomware" rewrites every document as keystream bytes.
	state := uint64(1)
	for _, p := range paths {
		enc := make([]byte, 2048)
		for i := range enc {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			enc[i] = byte(state)
		}
		if err := f.Change(ctx, p, enc, livewatch.EventModified); err != nil {
			fmt.Println("change:", err)
			return
		}
	}
	rep := sess.Reports()[0]
	fmt.Println("alerted:", alerted)
	fmt.Println("union indication:", rep.Union)
	// Output:
	// alerted: true
	// union indication: true
}
