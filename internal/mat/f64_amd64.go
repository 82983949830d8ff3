//go:build amd64

package mat

//go:noescape
func mulVecF64Asm(dst, w, x *float64, rows, cols, stride int)

//go:noescape
func mulVecTransF64Asm(dst, w, x *float64, rows, cols, stride int, ref *float64, acc int) float64

//go:noescape
func axpy1F64Asm(dst, b *float64, s float64, n int)

//go:noescape
func outer4F64Asm(m *float64, ldm int, v *float64, s *[4]float64, n int)

//go:noescape
func runningMeanL1F64Asm(mean, x, ref *float64, n int, fn, inv float64) float64

//go:noescape
func sigmoidF64Asm(dst, bias *float64, groups int) int

//go:noescape
func sigmoidF32Asm(dst, bias *float32, groups int) int
