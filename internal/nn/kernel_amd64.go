package nn

// gemvBlocksAVX computes nb 16-row blocks of one output row: for block b
// and row r, y[b*16+r] = init[b*16+r] + p[b*16*k+r]*x[0] + ... +
// p[b*16*k+(k-1)*16+r]*x[k-1], summed left to right with every product and
// sum rounded once. A nil init starts every sum from +0; init may equal y.
//
//go:noescape
func gemvBlocksAVX(y, init, p, x *float64, k, nb int)

// gradInputAVX is gradInput over the n > 0 lanes of b, and commitRowsAVX
// is commitRows with rows, n and k positive; see kernel_amd64.s.
//
//go:noescape
func gradInputAVX(b, w, z, s *float64, units, gates, ld, n int)

//go:noescape
func commitRowsAVX(a, z, s, x *float64, rows, ld, n, k int)

// sigmoidsAVX and tanhsAVX compute Sigmoid and Tanh of n groups of four
// float64s from src into dst (which may equal src), and return how many
// groups they stored before the first one outside their fast range (n if
// none); see gate_amd64.s.
//
//go:noescape
func sigmoidsAVX(dst, src *float64, n int) int

//go:noescape
func tanhsAVX(dst, src *float64, n int) int

// cpuid returns EAX, EBX and ECX of CPUID leaf with subleaf 0.
func cpuid(leaf uint32) (eax, ebx, ecx uint32)

// xgetbv0 returns the low word of the XCR0 register.
func xgetbv0() uint32

// hasAVX reports whether the CPU has AVX and the OS saves the YMM state.
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx := cpuid(1); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const sse, ymm = 1 << 1, 1 << 2 // XCR0: XMM and YMM state enabled
	return xgetbv0()&(sse|ymm) == sse|ymm
}

// hasAVX2FMA reports whether the CPU has AVX2 and FMA as well as AVX:
// CPUID.1:ECX bit 12 and CPUID.7:EBX bit 5.
func hasAVX2FMA() bool {
	const fma, avx2 = 1 << 12, 1 << 5
	if maxLeaf, _, _ := cpuid(0); maxLeaf < 7 || !hasAVX() {
		return false
	}
	_, _, ecx := cpuid(1)
	_, ebx, _ := cpuid(7)
	return ecx&fma != 0 && ebx&avx2 != 0
}
