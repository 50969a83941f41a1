//go:build unix

package stream

import (
	"os"
	"syscall"
)

// fileID returns the device and inode behind info.
func fileID(info os.FileInfo) (dev, ino uint64) {
	if st, ok := info.Sys().(*syscall.Stat_t); ok {
		return uint64(st.Dev), uint64(st.Ino)
	}
	return 0, 0
}
