package nn

import (
	"reflect"
	"testing"
)

// The CPU alone picks the lane count: with AVX-512, rowVec holds the
// eight-lane kernels, with the four-lane ones as their tail.
func TestRowVecWiring(t *testing.T) {
	if !hasAVX512() {
		t.Skip("no AVX-512 on this CPU")
	}
	same := func(f, g any) bool { return reflect.ValueOf(f).Pointer() == reflect.ValueOf(g).Pointer() }
	v := rowVec
	if v == nil || v.lanes != 8 || !same(v.madd4, maddRow4AVX512) || !same(v.madd1, maddRow1AVX512) || !same(v.madd4x3, maddRow4x3AVX512) {
		t.Fatal("rowVec does not hold the eight-lane kernels")
	}
	if v = v.tail; v == nil || v.lanes != 4 || !same(v.madd4, maddRow4AVX) || !same(v.madd1, maddRow1AVX) || !same(v.madd4x3, maddRow4x3AVX) || v.tail != nil {
		t.Fatal("the eight-lane kernels' tail is not the four-lane kernels")
	}
}
