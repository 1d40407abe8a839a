package mem

import (
	"testing"
)

// dirFuzzKeys is the line-address universe FuzzDirTable draws from: the
// eight lines of block 0, and, for each of the first three table sizes,
// lines of blocks whose hash group collides with block 0's and lines of
// blocks that hash to the last group, whose probes wrap the table end.
func dirFuzzKeys() []uint64 {
	keys := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	seen := map[uint64]bool{}
	add := func(ks ...uint64) {
		for _, k := range ks {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	for slots := dirInitialSlots; slots <= 4*dirInitialSlots; slots *= 2 {
		var t dirTable
		t.init(slots)
		last := slots - dirGroup
		collide, wrap := 0, 0
		for b := uint64(1); collide < 3 || wrap < 3; b++ {
			switch t.home(b << 3) {
			case 0:
				if collide < 3 {
					add(b<<3, b<<3|3, b<<3|7)
					collide++
				}
			case last:
				if wrap < 3 {
					add(b<<3|6, b<<3|7)
					wrap++
				}
			}
		}
	}
	return keys
}

// FuzzDirTable runs put/get/delete sequences against a map reference. Each
// pair of input bytes is one operation: the first selects put, delete or
// get (and, for put, the entry's contents), the second a key from
// dirFuzzKeys. After every operation the table must answer get for that
// key as the map does and hold as many entries; at the end every key of
// the universe must agree. The seed corpus in testdata/fuzz/FuzzDirTable
// fills and empties a block, collides with block 0, wraps the table end,
// grows the table twice and churns the wrapping run.
func FuzzDirTable(f *testing.F) {
	keys := dirFuzzKeys()
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab dirTable
		ref := map[uint64]dirEntry{}
		for i := 0; i+1 < len(ops); i += 2 {
			op, k := ops[i], keys[int(ops[i+1])%len(keys)]
			switch op % 3 {
			case 0:
				e := dirEntry{sharers: uint64(op) | 1, owner: int32(op >> 2), modified: op&4 != 0}
				tab.put(k, e)
				ref[k] = e
			case 1:
				tab.del(k)
				delete(ref, k)
			}
			got, ok := tab.get(k)
			want, wantOK := ref[k]
			if ok != wantOK || got != want {
				t.Fatalf("op %d on line %d: get = %+v, %v; reference %+v, %v", i/2, k, got, ok, want, wantOK)
			}
			if tab.n != len(ref) {
				t.Fatalf("op %d on line %d: %d entries, reference %d", i/2, k, tab.n, len(ref))
			}
			if tab.slots != nil && 2*tab.n > len(tab.slots) {
				t.Fatalf("op %d: %d entries in %d slots, more than half full", i/2, tab.n, len(tab.slots))
			}
		}
		for _, k := range keys {
			got, ok := tab.get(k)
			if want, wantOK := ref[k]; ok != wantOK || got != want {
				t.Fatalf("line %d: get = %+v, %v; reference %+v, %v", k, got, ok, want, wantOK)
			}
		}
	})
}

// A block's lines probe consecutive slots, so a streaming core's lines sit
// side by side; the fuzz universe really contains colliding and wrapping
// blocks.
func TestDirTableLayout(t *testing.T) {
	var tab dirTable
	for la := uint64(40); la < 48; la++ {
		tab.put(la, dirEntry{sharers: 1})
	}
	first, _ := tab.find(40)
	for la := uint64(41); la < 48; la++ {
		if i, _ := tab.find(la); i != (first+int(la-40))&tab.mask {
			t.Fatalf("line %d in slot %d, line 40 in slot %d: block not contiguous", la, i, first)
		}
	}
	tab.init(dirInitialSlots)
	var collide, wrap bool
	for _, k := range dirFuzzKeys() {
		collide = collide || (k > 7 && tab.home(k) == int(k&7))
		wrap = wrap || tab.home(k) == len(tab.slots)-1
	}
	if !collide || !wrap {
		t.Fatalf("fuzz keys collide with block 0: %v; wrap the table end: %v", collide, wrap)
	}
}
