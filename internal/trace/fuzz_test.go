package trace

import (
	"strings"
	"testing"
)

func FuzzRead(f *testing.F) {
	f.Add(`{"seq":1,"op":"write","pid":3,"path":"/a","data":"aGk="}`)
	f.Add(`{"seq":1,"op":"write","pid":3,"path":"/a","fileId":1,"offset":-4,"data":"aGk="}`)
	f.Add("{}")
	f.Add("")
	f.Fuzz(func(t *testing.T, line string) {
		_, _ = Read(strings.NewReader(line)) // must never panic
	})
}
