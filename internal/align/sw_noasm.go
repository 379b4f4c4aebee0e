//go:build !amd64 || purego

package align

func haveAVX2() bool { return false }

func swStriped16(profile []int16, subject []byte, class *[256]uint8, buf []int16, segLen, gapO, gapE int) int {
	panic("align: the striped kernel needs amd64 assembly")
}
