//go:build amd64 && !purego

package align

// haveAVX2 reports whether the CPU has AVX2 and the OS saves YMM registers.
func haveAVX2() bool

// swStriped16 runs the striped kernel (sw_amd64.s) of the profile built by
// prepareStriped over subject and returns the best H of the subject's
// columns, 32767 if an addition saturated. buf holds 3*segLen vectors: two
// H columns, zeroed, then E, filled with -(gapO+gapE), which must fit in an
// int16.
//
//go:noescape
func swStriped16(profile []int16, subject []byte, class *[256]uint8, buf []int16, segLen, gapO, gapE int) int
