package gvdecode

// hasSSSE3 reports CPUID.1:ECX bit 9 — the feature level PSHUFB needs.
func hasSSSE3() bool

// decodeSSSE3 is the assembly kernel. It decodes up to `groups` control
// bytes from ctrl, reading packed value bytes from data (stopping while a
// full 16-byte load window remains), writing two [2]int32 edges per group to
// dst, and updating st in place. Bit-exact with Ref.
//
//go:noescape
func decodeSSSE3(ctrl *byte, groups int64, data *byte, dataLen int64, dst *[2]int32, st *State)

var useSIMD = hasSSSE3()

// Available reports whether the assembly kernel can run on this CPU.
func Available() bool { return useSIMD }

// Decode runs the vectorized kernel when the CPU supports it and the
// bit-exact portable model otherwise. dst must hold at least 2*groups edges;
// ctrl at least groups bytes.
func Decode(ctrl []byte, groups int, data []byte, dst [][2]int32, st *State) {
	if groups < 0 || groups > len(ctrl) || 2*groups > len(dst) {
		panic("gvdecode: Decode arguments out of range")
	}
	if !useSIMD {
		Ref(ctrl, groups, data, dst, st)
		return
	}
	if groups == 0 || len(data) < 16 {
		st.Done, st.Flags, st.Consumed = 0, 0, 0
		return
	}
	decodeSSSE3(&ctrl[0], int64(groups), &data[0], int64(len(data)), &dst[0], st)
}
