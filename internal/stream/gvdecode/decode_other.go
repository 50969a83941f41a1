//go:build !amd64

package gvdecode

// Available reports whether the assembly kernel can run on this CPU.
// Only amd64 has one; everything else keeps the scalar decoder.
func Available() bool { return false }

// Decode falls back to the portable model on non-amd64 builds so callers and
// tests can use one entry point unconditionally.
func Decode(ctrl []byte, groups int, data []byte, dst [][2]int32, st *State) {
	if groups < 0 || groups > len(ctrl) || 2*groups > len(dst) {
		panic("gvdecode: Decode arguments out of range")
	}
	Ref(ctrl, groups, data, dst, st)
}
