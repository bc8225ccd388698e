package fnv

import (
	"encoding/binary"
	stdfnv "hash/fnv"
	"testing"
)

// TestFoldsAreFNV1a checks String against the standard library's FNV-1a
// from the offset basis, and the byte, word and eight-byte folds against it.
func TestFoldsAreFNV1a(t *testing.T) {
	for _, s := range []string{"", "a", "SP/phase-3", "16x4+32x2:little"} {
		std := stdfnv.New64a()
		std.Write([]byte(s))
		if got, want := String(OffsetBasis, s), std.Sum64(); got != want {
			t.Errorf("String(%q) = %#x, hash/fnv %#x", s, got, want)
		}
		if got, want := Bytes(Start, []byte(s)), String(Start, s); got != want {
			t.Errorf("Bytes(%q) = %#x, String %#x", s, got, want)
		}
	}
	const v = 0x0123456789abcdef
	var le [8]byte
	binary.LittleEndian.PutUint64(le[:], v)
	if got, want := WordBytes(Start, v), Bytes(Start, le[:]); got != want {
		t.Errorf("WordBytes = %#x, Bytes of its little-endian bytes %#x", got, want)
	}
	if got, want := Word(Start, 'x'), String(Start, "x"); got != want {
		t.Errorf("Word of one byte = %#x, String %#x", got, want)
	}
}
