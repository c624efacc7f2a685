// Package hostile holds the contract every decoder of bytes that come from
// outside the process — a replication peer's files, a client's XML — is
// tested against: whatever the bytes, no panic, and no allocation beyond a
// small multiple of the bytes actually supplied. It exists for tests and
// fuzz targets; nothing outside a _test.go file imports it.
package hostile

import (
	"runtime"
	"testing"
)

// Check runs decode over n input bytes, fails t if that allocated more
// than 256×n + 1 MiB, and returns decode's error for the caller to class.
// The multiple covers the decoded form of the densest input — a record or
// tree node of a hundred-odd bytes per handful of input bytes, doubled by
// slice growth — and the constant the fixed buffers. A panic in decode
// fails the test by itself.
func Check(t testing.TB, n int, decode func() error) error {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := decode()
	runtime.ReadMemStats(&after)
	if grown, limit := after.TotalAlloc-before.TotalAlloc, 256*uint64(n)+1<<20; grown > limit {
		t.Fatalf("%d input bytes made the decoder allocate %d bytes (limit %d)", n, grown, limit)
	}
	return err
}
