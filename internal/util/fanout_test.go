package util

import (
	"errors"
	"slices"
	"sync"
	"testing"
)

// fanoutCalls runs one Fanout.Run and records every op call.
func fanoutCalls(t *testing.T, f *Fanout, keys []uint64, idxs []int, shards int, ordered bool) [][2]any {
	t.Helper()
	var mu sync.Mutex
	var calls [][2]any
	err := f.Run(keys, idxs, shards, ordered, func(sh int, g []int) error {
		mu.Lock()
		defer mu.Unlock()
		calls = append(calls, [2]any{sh, slices.Clone(g)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return calls
}

func TestFanoutSchedules(t *testing.T) {
	const shards = 4
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = uint64(i * 13)
	}
	var f Fanout
	for _, tc := range []struct {
		name    string
		keys    []uint64
		idxs    []int
		ordered bool
	}{
		{"small", keys[:BatchFanoutMin-1], nil, false},
		{"parallel", keys, nil, false},
		{"selected", keys, []int{40, 3, 17, 3, 60}, false},
		{"ordered", keys, nil, true},
		{"ordered-selected", keys, []int{40, 3, 17, 3, 60}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pos := tc.idxs
			if pos == nil {
				for i := range tc.keys {
					pos = append(pos, i)
				}
			}
			calls := fanoutCalls(t, &f, tc.keys, tc.idxs, shards, tc.ordered)
			var seen []int
			prev := -1
			for _, c := range calls {
				sh, g := c[0].(int), c[1].([]int)
				if len(g) == 0 {
					t.Fatalf("op called with an empty group for shard %d", sh)
				}
				for _, i := range g {
					if ShardOf(tc.keys[i], shards) != sh {
						t.Fatalf("position %d routed to shard %d, owner %d", i, sh, ShardOf(tc.keys[i], shards))
					}
				}
				if tc.ordered && sh == prev {
					t.Fatalf("ordered runs not maximal: shard %d twice in a row", sh)
				}
				prev = sh
				seen = append(seen, g...)
			}
			if tc.ordered {
				// Runs concatenate back to caller order.
				if !slices.Equal(seen, pos) {
					t.Fatalf("ordered calls cover %v, want caller order %v", seen, pos)
				}
				return
			}
			if len(calls) > shards {
				t.Fatalf("%d calls for %d shards", len(calls), shards)
			}
			slices.Sort(seen)
			want := slices.Clone(pos)
			slices.Sort(want)
			if !slices.Equal(seen, want) {
				t.Fatalf("calls cover %v, want %v", seen, want)
			}
		})
	}
}

func TestFanoutFirstErrorByShard(t *testing.T) {
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = uint64(i)
	}
	errs := []error{nil, errors.New("shard 1"), nil, errors.New("shard 3")}
	var f Fanout
	err := f.Run(keys, nil, len(errs), false, func(sh int, _ []int) error { return errs[sh] })
	if err != errs[1] {
		t.Fatalf("Run returned %v, want the first error by shard order", err)
	}
	// The buffers are reused: a clean batch after a failed one succeeds.
	if err := f.Run(keys, nil, len(errs), false, func(int, []int) error { return nil }); err != nil {
		t.Fatalf("reused Fanout returned %v", err)
	}
}
