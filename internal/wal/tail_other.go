//go:build !linux

package wal

import "os"

// syncAfterWrite is true: without Linux's O_DSYNC guarantee a durable
// segment is synced after each write.
const syncAfterWrite = true

// openTail opens a segment for the writer.
func openTail(path string, flag int, durable bool) (*os.File, error) {
	return os.OpenFile(path, flag, 0o644)
}
