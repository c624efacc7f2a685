// Package compressutil wraps DEFLATE/gzip: maximum-compression helpers
// for the "gzip -9" baselines of §5.4 and the XMill-style container
// compressor.
package compressutil

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"fmt"
	"io"
)

// Gzip compresses data at gzip.BestCompression.
func Gzip(data []byte) []byte {
	var buf bytes.Buffer
	w, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	if err != nil {
		panic(err) // static level; cannot fail
	}
	if _, err := w.Write(data); err != nil {
		panic(fmt.Sprintf("compressutil: in-memory gzip write failed: %v", err))
	}
	if err := w.Close(); err != nil {
		panic(fmt.Sprintf("compressutil: in-memory gzip close failed: %v", err))
	}
	return buf.Bytes()
}

// Gunzip decompresses gzip data.
func Gunzip(data []byte) ([]byte, error) {
	r, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("compressutil: %w", err)
	}
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("compressutil: %w", err)
	}
	return out, nil
}

// GzipSize returns the compressed size of data, the metric the gzip(...)
// chart lines report.
func GzipSize(data []byte) int { return len(Gzip(data)) }

// GzipSizeStrings gzips the concatenation of pieces (the paper compresses
// the whole repository, not each delta separately).
func GzipSizeStrings(pieces []string) int {
	var buf bytes.Buffer
	w, _ := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	for _, p := range pieces {
		io.WriteString(w, p)
	}
	w.Close()
	return buf.Len()
}

// Flate compresses data with raw DEFLATE at BestCompression (used by the
// XMill-style container compressor, which manages its own framing).
func Flate(data []byte) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		panic(err)
	}
	w.Write(data)
	w.Close()
	return buf.Bytes()
}

// Unflate decompresses raw DEFLATE data.
func Unflate(data []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("compressutil: %w", err)
	}
	return out, nil
}
