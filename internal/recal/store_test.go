package recal

import "testing"

func TestStorePhaseTableBounded(t *testing.T) {
	s := NewStore(StoreConfig{})
	for i := 0; i < 2*maxPhases; i++ {
		s.Observe(Obs{Phase: uint64(i), Err: 0.1})
	}
	if got := len(s.phases); got != maxPhases {
		t.Fatalf("phase table holds %d entries, bound is %d", got, maxPhases)
	}
}
