package upc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Dump-reader sentinel errors. Structural damage to a dump — bad magic,
// a truncated file, a checksum mismatch, the wrong bucket count — wraps
// ErrCorrupt; a dump written by a newer format wraps
// ErrUnsupportedVersion. True I/O failures from the underlying reader
// pass through unwrapped, so errors.Is(err, ErrCorrupt) cleanly
// separates "this file is damaged" from "I could not read it".
var (
	ErrCorrupt            = errors.New("upc: corrupt histogram dump")
	ErrUnsupportedVersion = errors.New("upc: unsupported dump version")
)

// corruptErr wraps a structural-damage error with ErrCorrupt. Short
// reads from io.ReadFull (io.EOF / io.ErrUnexpectedEOF) are truncation,
// which is corruption; any other read error is the reader's own failure
// and is returned as-is.
func corruptErr(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

func readErr(what string, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return corruptErr("truncated while reading %s: %v", what, err)
	}
	return fmt.Errorf("upc: reading %s: %w", what, err)
}

// Histogram dump format. The measurement procedure of §2.2 read the
// board's counts over the Unibus and saved them for offline reduction;
// this is that dump: a small header, the two count sets, and a checksum.
//
//	magic   [4]byte  "UPCH"
//	version uint16   1
//	buckets uint32   16384
//	normal  [buckets]uint64 little-endian
//	stalled [buckets]uint64
//	crc32   uint32   IEEE, over everything above
const (
	dumpMagic   = "UPCH"
	dumpVersion = 1
)

// dumpChunk is the step, in bytes, in which WriteTo encodes and
// ReadHistogram decodes the count sets: 4096 counts at a time through
// one buffer, rather than staging a whole 128 KB set. Each step is one
// Write to the destination, and a dump often goes straight to a file,
// so the step is kept large enough that a dump costs ten writes; at
// 4 KB it cost 66 and a direct file write took about 30% longer.
const dumpChunk = 32 << 10

// countSets are the histogram's two count sets in dump order.
func (h *Histogram) countSets() [2]*[Buckets]uint64 {
	return [2]*[Buckets]uint64{&h.Normal, &h.Stalled}
}

// WriteTo serializes the histogram.
func (h *Histogram) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	var sum uint32
	buf := make([]byte, dumpChunk)
	emit := func(p []byte) error {
		sum = crc32.Update(sum, crc32.IEEETable, p)
		_, err := cw.Write(p)
		return err
	}

	copy(buf, dumpMagic)
	binary.LittleEndian.PutUint16(buf[4:], dumpVersion)
	binary.LittleEndian.PutUint32(buf[6:], Buckets)
	if err := emit(buf[:10]); err != nil {
		return cw.n, err
	}
	for _, set := range h.countSets() {
		for lo := 0; lo < Buckets; lo += dumpChunk / 8 {
			for i, v := range set[lo : lo+dumpChunk/8] {
				binary.LittleEndian.PutUint64(buf[8*i:], v)
			}
			if err := emit(buf); err != nil {
				return cw.n, err
			}
		}
	}
	binary.LittleEndian.PutUint32(buf, sum)
	_, err := cw.Write(buf[:4])
	return cw.n, err
}

// ReadHistogram deserializes a histogram dump, verifying its checksum.
// It reads exactly the dump's bytes from r, so a dump embedded in a
// longer stream (a checkpoint record) leaves r at the byte after it.
func ReadHistogram(r io.Reader) (*Histogram, error) {
	buf := make([]byte, dumpChunk)
	head := buf[:10]
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, readErr("header", err)
	}
	sum := crc32.Update(0, crc32.IEEETable, head)
	if string(head[:4]) != dumpMagic {
		return nil, corruptErr("bad magic %q", head[:4])
	}
	if v := binary.LittleEndian.Uint16(head[4:]); v != dumpVersion {
		return nil, fmt.Errorf("%w: version %d, reader supports %d",
			ErrUnsupportedVersion, v, dumpVersion)
	}
	if b := binary.LittleEndian.Uint32(head[6:]); b != Buckets {
		return nil, corruptErr("bucket count %d, want %d", b, Buckets)
	}

	h := &Histogram{}
	for _, set := range h.countSets() {
		for lo := 0; lo < Buckets; lo += dumpChunk / 8 {
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, readErr("counts", err)
			}
			sum = crc32.Update(sum, crc32.IEEETable, buf)
			for i := range set[lo : lo+dumpChunk/8] {
				set[lo+i] = binary.LittleEndian.Uint64(buf[8*i:])
			}
		}
	}
	tail := buf[:4]
	if _, err := io.ReadFull(r, tail); err != nil {
		return nil, readErr("checksum", err)
	}
	if got := binary.LittleEndian.Uint32(tail); got != sum {
		return nil, corruptErr("checksum mismatch: file %08x, computed %08x", got, sum)
	}
	return h, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// AtomicWriteFile writes a file by streaming through write into a
// temporary file in the destination directory, fsyncing it, and
// renaming it over path. A crash at any point leaves either the old
// file or the new one — never a torn dump. The temp file is removed on
// any failure.
func AtomicWriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Chmod(tmp, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// WriteFile atomically writes the histogram dump to path.
func (h *Histogram) WriteFile(path string) error {
	return AtomicWriteFile(path, func(w io.Writer) error {
		_, err := h.WriteTo(w)
		return err
	})
}

// ReadHistogramFile reads a histogram dump from path.
func ReadHistogramFile(path string) (*Histogram, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadHistogram(f)
}
