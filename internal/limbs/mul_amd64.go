package limbs

import "unsafe"

// hasADX reports whether the CPU has BMI2 (MULX) and ADX (ADCX/ADOX), the
// instructions montMulADX is written in (Intel Broadwell, AMD Zen and
// later). Set once at package init from CPUID.
var hasADX = detectADX()

func detectADX() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const bmi2, adx = 1 << 8, 1 << 19
	return ebx&bmi2 != 0 && ebx&adx != 0
}

// montMulADX sets z = x*y*R^{-1} mod q for x, y < q, in assembly
// (mul_amd64.s). It requires q[3] < 2^63 - 1 and inv = -q^{-1} mod 2^64,
// and reads nothing but its arguments. z may alias x or y.
//
//go:noescape
func montMulADX(z, x, y, q *Limbs, inv uint64)

// butterflyRunADX is the portable block butterfly's loop in assembly
// (mul_amd64.s), under montMulADX's conditions on q and inv, for n ≥ 1
// consecutive pairs the caller has checked.
//
//go:noescape
func butterflyRunADX(x, y, w *Limbs, n int, q *Limbs, inv uint64)

// cpuid executes the CPUID instruction for (leaf, sub-leaf).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// The assembly passes read an AddOp as P at 0, Q at 8 and Neg at 16, 24
// bytes in all; this fails to compile otherwise.
var (
	_ = [1]struct{}{}[unsafe.Offsetof(AddOp{}.Q)-8]
	_ = [1]struct{}{}[unsafe.Offsetof(AddOp{}.Neg)-16]
	_ = [1]struct{}{}[unsafe.Sizeof(AddOp{})-24]
)

// addRunFirstADX is AddRun's first pass in assembly (mul_amd64.s): for each
// of the n ≥ 1 ops it writes the slope's denominator and numerator and the
// running prefix product of the nonzero denominators before it, and leaves
// the product of them all in acc.
//
//go:noescape
func addRunFirstADX(ops *AddOp, n int, den, num, prefix, acc, q *Limbs, inv uint64)

// addRunSecondADX is AddRun's second pass in assembly: with inv holding the
// inverse of the first pass's product, it walks the ops backwards and
// applies each sum. It overwrites *inv.
//
//go:noescape
func addRunSecondADX(ops *AddOp, n int, den, num, prefix, inv, q *Limbs, minv uint64)
