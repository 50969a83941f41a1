//go:build !unix

package stream

import "os"

// fileID reports no device or inode: this platform's stat does not expose
// them, so file identity rests on path, size and mtime.
func fileID(os.FileInfo) (dev, ino uint64) { return 0, 0 }
