//go:build !amd64

package limbs

// hasADX is false off amd64: the generic kernel is the only one.
const hasADX = false

// montMulADX exists off amd64 only so MontMul compiles everywhere; hasADX
// is a false constant here, so the call is compiled out.
func montMulADX(z, x, y, q *Limbs, inv uint64) {
	panic("limbs: no ADX kernel on this platform")
}

// butterflyRunADX exists off amd64 only so the portable block butterfly
// compiles everywhere; like montMulADX, its call is compiled out.
func butterflyRunADX(x, y, w *Limbs, n int, q *Limbs, inv uint64) {
	panic("limbs: no ADX kernel on this platform")
}

// addRunFirstADX and addRunSecondADX exist off amd64 only so AddRun
// compiles everywhere; their calls are compiled out.
func addRunFirstADX(ops *AddOp, n int, den, num, prefix, acc, q *Limbs, inv uint64) {
	panic("limbs: no ADX kernel on this platform")
}

func addRunSecondADX(ops *AddOp, n int, den, num, prefix, inv, q *Limbs, minv uint64) {
	panic("limbs: no ADX kernel on this platform")
}
