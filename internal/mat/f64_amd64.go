//go:build amd64

package mat

//go:noescape
func dot4F64Asm(w *float64, ldw int, x *float64, n int, acc *[4][4]float64)

//go:noescape
func dot1F64Asm(a, b *float64, n int, acc *[4]float64)

//go:noescape
func axpy4F64Asm(dst, b *float64, ldb int, s *[4]float64, n int)

//go:noescape
func axpy1F64Asm(dst, b *float64, s float64, n int)

//go:noescape
func outer4F64Asm(m *float64, ldm int, v *float64, s *[4]float64, n int)
