//go:build amd64 && !purego

package dense

// ukernel4x8asm is the AVX2+FMA micro-kernel (kernel_amd64.s). a holds the
// packed MR-interleaved panel of op(A), b the packed NR-interleaved panel of
// op(B); the MR×NR result tile is accumulated onto c with row stride ldc.
//
//go:noescape
func ukernel4x8asm(k int, a, b *float64, c *float64, ldc int)

// transposeRows8asm moves the first n4 (a multiple of 4) columns of the
// NR = 8 rows at b to or from their packed form at yp (transposeRows8),
// with two 4×4 register transposes per four columns.
//
//go:noescape
func transposeRows8asm(yp, b *float64, bStride, n4 int, unpack bool)

// packRows4asm packs the first k4 (a multiple of 4) columns of the MR = 4
// rows at a k-major and scaled by alpha (packPanelsA), with one 4×4
// register transpose per four columns.
//
//go:noescape
func packRows4asm(dst, a *float64, aStride, k4 int, alpha float64)

// cpuid executes the CPUID instruction for the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (OS-enabled SIMD state).
func xgetbv() (eax, edx uint32)

// hasAVX2FMA reports whether the CPU and OS support the AVX2+FMA kernel.
func hasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fmaBit, osxsaveBit, avxBit = 1 << 12, 1 << 27, 1 << 28
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// OS must have enabled XMM (bit 1) and YMM (bit 2) state saving.
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

func ukernelAsmWrap(k int, a, b []float64, c []float64, ldc int) {
	if k == 0 {
		return // zero-depth panel: C is unchanged
	}
	ukernel4x8asm(k, &a[0], &b[0], &c[0], ldc)
}

func init() {
	if hasAVX2FMA() {
		ukernel = ukernelAsmWrap
		transposeRows8Wide = transposeRows8asm
		packRows4Wide = packRows4asm
	}
}
