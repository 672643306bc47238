package wal

import (
	"errors"
	"os"
	"syscall"
)

// syncAfterWrite is false: every durable segment is opened O_DSYNC.
const syncAfterWrite = false

// refuseDirect makes openTail take its O_DIRECT-refused path, so tests can
// run it on a filesystem that accepts O_DIRECT.
var refuseDirect bool

// openTail opens a segment for the writer. A durable one asks for
// O_DIRECT|O_DSYNC, so each write bypasses the page cache and is on the
// device when it returns; where the filesystem refuses O_DIRECT (EINVAL,
// e.g. tmpfs before Linux 6.6) it opens with O_DSYNC alone. The writes stay
// the same either way.
func openTail(path string, flag int, durable bool) (*os.File, error) {
	if !durable {
		return os.OpenFile(path, flag, 0o644)
	}
	if !refuseDirect {
		f, err := os.OpenFile(path, flag|syscall.O_DIRECT|syscall.O_DSYNC, 0o644)
		if !errors.Is(err, syscall.EINVAL) {
			return f, err
		}
	}
	// A refused open may already have created the file.
	return os.OpenFile(path, flag&^os.O_EXCL|syscall.O_DSYNC, 0o644)
}
