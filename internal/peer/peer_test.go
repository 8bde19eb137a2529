package peer

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRankStableUnderRemoval pins the property the replication contract
// rests on: scores are per address, so dropping one address from the set
// leaves the others in the same relative order. A worker's rank over the
// other nodes (its push targets) is therefore the front-end's rank over
// all workers with that worker taken out — the top-factor sets agree.
func TestRankStableUnderRemoval(t *testing.T) {
	addrs := []string{"n1:8337", "n2:8337", "n3:8337", "n4:8337", "n5:8337"}
	first := map[string]int{}
	for i := 0; i < 200; i++ {
		rec := fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15)
		full := Rank(addrs, rec)
		if again := Rank(addrs, rec); !reflect.DeepEqual(full, again) {
			t.Fatalf("record %s: Rank is not deterministic: %v vs %v", rec, full, again)
		}
		first[full[0]]++
		for drop := range addrs {
			rest := append(append([]string(nil), addrs[:drop]...), addrs[drop+1:]...)
			var want []string
			for _, a := range full {
				if a != addrs[drop] {
					want = append(want, a)
				}
			}
			if got := Rank(rest, rec); !reflect.DeepEqual(got, want) {
				t.Fatalf("record %s without %s: Rank = %v, want the full order minus it %v", rec, addrs[drop], got, want)
			}
		}
	}
	if len(first) != len(addrs) {
		t.Fatalf("200 records chose %d distinct owners out of %d: %v", len(first), len(addrs), first)
	}
}
