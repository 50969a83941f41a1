package stream

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// BexExt is the file extension of the .bex v2 binary edge format (bex2.go).
// Dispatch is by content, so a v2 file opens as v2 under any name; the
// extension only decides that a file which is not v2 is a corrupt .bex
// rather than text.
const BexExt = ".bex"

// FileBacked is a file-backed edge stream that must eventually be closed.
type FileBacked interface {
	Stream
	Close() error
}

// OpenAuto opens an edge file in one of the two on-disk formats: a file that
// starts with the "BEX2" magic gets the .bex v2 reader whatever it is named,
// and anything else the text parser. Binary-looking input that is not v2
// fails here with ErrCorruptHeader instead of as a parse error on line 1: a
// file with the retired .bex v1 magic "BEX1", a .bex name holding anything
// but v2, and a directory. The text path defers errors to the first Reset,
// matching OpenFile.
func OpenAuto(path string) (FileBacked, error) {
	return OpenAutoOpts(path, OpenOptions{})
}

// OpenOptions configure how OpenAutoOpts serves a file. The zero value is
// OpenAuto's behavior: no decoded-block cache.
type OpenOptions struct {
	// DecodeCache lets the .bex v2 reader serve repeat block reads from the
	// process-wide decoded-block cache (see SetDecodeCacheBudget): multi-pass
	// scans of the same file skip decode entirely after the first pass.
	// Results are bit-identical with the cache on or off.
	DecodeCache bool
}

// OpenAutoOpts is OpenAuto with explicit reader options.
func OpenAutoOpts(path string, o OpenOptions) (FileBacked, error) {
	info, err := os.Stat(path)
	isDir := err == nil && info.IsDir()
	switch magic := sniffMagic(path); {
	case magic == "BEX1":
		return nil, fmt.Errorf("stream: %s: .bex v1 (magic %q) is no longer read; only .bex v2 and text are: %w",
			path, magic, ErrCorruptHeader)
	case magic == bex2Magic, strings.HasSuffix(strings.ToLower(path), BexExt), isDir:
		// The v2 reader's open-time checks name what is wrong: a bad magic, a
		// file too short for a container, or not a regular file.
		return openBex2Cache(path, o.DecodeCache)
	}
	return OpenFile(path), nil
}

// sniffMagic reads the first four bytes of path; it returns "" when the file
// cannot be read or is shorter than a magic.
func sniffMagic(path string) string {
	file, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer file.Close()
	var magic [4]byte
	if _, err := io.ReadFull(file, magic[:]); err != nil {
		return ""
	}
	return string(magic[:])
}
