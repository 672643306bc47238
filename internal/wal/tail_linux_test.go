package wal

import (
	"errors"
	"reflect"
	"syscall"
	"testing"
)

// TestDirectRefusedWritesTheSameLog forces openTail's path for a
// filesystem that refuses O_DIRECT: the segments open with O_DSYNC alone,
// and the same appends, torn append, recovery and close leave the same
// files as with direct I/O.
func TestDirectRefusedWritesTheSameLog(t *testing.T) {
	run := func(refuse bool) (map[string][]byte, uintptr) {
		refuseDirect = refuse
		defer func() { refuseDirect = false }()
		dir := t.TempDir()
		opt := Options{SegmentBytes: 2 * blockSize}
		w, err := Open(dir, 0, opt)
		if err != nil {
			t.Fatal(err)
		}
		flags, _, errno := syscall.Syscall(syscall.SYS_FCNTL, w.f.Fd(), syscall.F_GETFL, 0)
		if errno != 0 {
			t.Fatal(errno)
		}
		appendAll(t, w, 300)
		crashed := errors.New("crash")
		w.opt.CrashHook = func(point string) error {
			if point == "append:torn" {
				return crashed
			}
			return nil
		}
		if _, err := w.Append([]byte("victim")); !errors.Is(err, crashed) {
			t.Fatalf("torn append: %v", err)
		}
		crash(t, w)
		w = reopen(t, dir, opt, 301)
		appendAll(t, w, 5)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		requireLog(t, dir, 305)
		return dirFiles(t, dir), flags
	}
	direct, flags := run(false)
	t.Logf("O_DIRECT accepted here: %t", flags&syscall.O_DIRECT != 0)
	refused, flags := run(true)
	if flags&syscall.O_DIRECT != 0 || flags&syscall.O_DSYNC == 0 {
		t.Fatalf("refused path opened a segment with flags %#o, want O_DSYNC without O_DIRECT", flags)
	}
	if !reflect.DeepEqual(refused, direct) {
		t.Fatal("with O_DIRECT refused the log's files differ")
	}
}
