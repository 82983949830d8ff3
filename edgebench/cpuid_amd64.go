package main

import "strings"

// cpuid executes the CPUID instruction.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// cpuFeatures reports the processor brand string and whether the CPU
// implements AVX2 and FMA (whether the OS enables them is what
// mat.F32SIMD reports).
func cpuFeatures() (model string, avx2, fma bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf >= 1 {
		_, _, ecx, _ := cpuid(1, 0)
		fma = ecx&(1<<12) != 0
	}
	if maxLeaf >= 7 {
		_, ebx, _, _ := cpuid(7, 0)
		avx2 = ebx&(1<<5) != 0
	}
	model = "unknown"
	if maxExt, _, _, _ := cpuid(0x80000000, 0); maxExt >= 0x80000004 {
		var regs [12]uint32
		for i := uint32(0); i < 3; i++ {
			a, b, c, d := cpuid(0x80000002+i, 0)
			regs[4*i], regs[4*i+1], regs[4*i+2], regs[4*i+3] = a, b, c, d
		}
		model = brandString(regs)
	}
	return model, avx2, fma
}

// brandString decodes the CPUID processor brand leaves.
func brandString(regs [12]uint32) string {
	b := make([]byte, 0, 48)
	for _, r := range regs {
		b = append(b, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
	}
	return strings.TrimSpace(strings.TrimRight(string(b), "\x00"))
}
