package stream

// Backend names for the storage formats a stream can be served from. These
// strings are stable: they appear in trianglecount output, triangled
// /metrics and status JSON, and the bench sweep's metric keys.
const (
	BackendMemory = "memory"
	BackendText   = "text"
	BackendBex1   = "bex1"
	BackendBex2   = "bex2"
	BackendBexd   = "bexd"
)

// Backender is implemented by streams that know which storage backend they
// read from.
type Backender interface {
	Backend() string
}

// BackendOf reports the storage backend of s, unwrapping decorators (fault
// injectors, counters) that forward the Backender interface. Streams that do
// not identify themselves report "memory" — the in-process backend every
// non-file stream amounts to.
func BackendOf(s Stream) string {
	if b, ok := s.(Backender); ok {
		return b.Backend()
	}
	return BackendMemory
}

// DescribeBackend decorates a backend name with the active decode engine for
// display ("bex2/ssse3+cache", "bexd/scalar", ...). Only the v2 family has a
// decode engine to report; other backends pass through unchanged. This is a
// presentation helper for status lines — stored results keep the plain
// backend name, which stays identical across kernels and cache modes because
// the decoded edges do.
func DescribeBackend(backend string, cache bool) string {
	switch backend {
	case BackendBex2, BackendBexd:
		d := backend + "/" + DecodeKernelName()
		if cache {
			d += "+cache"
		}
		return d
	}
	return backend
}
