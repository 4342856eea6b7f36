package nn

// gemvBlocksAVX computes nb 16-row blocks of one output row: for block b
// and row r, y[b*16+r] = init[b*16+r] + p[b*16*k+r]*x[0] + ... +
// p[b*16*k+(k-1)*16+r]*x[k-1], summed left to right with every product and
// sum rounded once. A nil init starts every sum from +0; init may equal y.
//
//go:noescape
func gemvBlocksAVX(y, init, p, x *float64, k, nb int)

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xgetbv0 returns the low word of the XCR0 register.
func xgetbv0() uint32

// hasAVX reports whether the CPU has AVX and the OS saves the YMM state.
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx := cpuid1ECX(); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const sse, ymm = 1 << 1, 1 << 2 // XCR0: XMM and YMM state enabled
	return xgetbv0()&(sse|ymm) == sse|ymm
}
