package mem

// dirEntry is the directory's view of one line across private hierarchies.
type dirEntry struct {
	sharers  uint64 // bitmask of cores holding the line privately
	owner    int32  // core with the modified copy, valid iff modified
	modified bool
}

// dirSlot is one slot of the directory table: the key and its entry side
// by side in 24 bytes, so a probe reads one host cache line.
type dirSlot struct {
	key uint64 // lineAddr+1; 0 marks an empty slot
	dirEntry
}

// dirTable is the coherence directory: an open-addressed, linearly probed
// table from line address to dirEntry. A line's probe starts in the 8-slot
// group its 8-line block hashes to, at its offset within the block, so a
// core streaming through consecutive lines touches consecutive slots.
// Deletion shifts the following run back instead of leaving tombstones, so
// the table never needs a rebuild to stay short. It starts at
// dirInitialSlots and doubles when half full; because entries exist only
// for lines some private cache holds, the private capacity bounds its size.
type dirTable struct {
	slots []dirSlot
	mask  int  // len(slots)-1
	shift uint // 64 − log2 of the group count
	n     int  // occupied slots
}

const (
	dirInitialSlots = 64
	dirGroup        = 8                  // slots per hash group: lines per block
	fibonacci       = 0x9E3779B97F4A7C15 // 2^64 / golden ratio
)

// init sizes an empty table to slots, a power of two no smaller than
// dirGroup.
func (t *dirTable) init(slots int) {
	t.slots = make([]dirSlot, slots)
	t.mask = slots - 1
	t.shift = 64
	for g := slots / dirGroup; g > 1; g >>= 1 {
		t.shift--
	}
	t.n = 0
}

// reset empties the table, keeping its slots for the next run.
func (t *dirTable) reset() {
	clear(t.slots)
	t.n = 0
}

// home is the slot lineAddr's probe starts at.
func (t *dirTable) home(lineAddr uint64) int {
	g := int((lineAddr >> 3) * fibonacci >> t.shift)
	return g*dirGroup + int(lineAddr&(dirGroup-1))
}

// find returns the slot holding lineAddr and true, or the empty slot that
// ends its probe and false.
func (t *dirTable) find(lineAddr uint64) (int, bool) {
	if t.slots == nil {
		return -1, false
	}
	key := lineAddr + 1
	for i := t.home(lineAddr); ; i = (i + 1) & t.mask {
		switch t.slots[i].key {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// get returns lineAddr's entry and whether it has one.
func (t *dirTable) get(lineAddr uint64) (dirEntry, bool) {
	if i, ok := t.find(lineAddr); ok {
		return t.slots[i].dirEntry, true
	}
	return dirEntry{}, false
}

// put stores e as lineAddr's entry, inserting it if absent.
func (t *dirTable) put(lineAddr uint64, e dirEntry) {
	i, ok := t.find(lineAddr)
	if ok {
		t.slots[i].dirEntry = e
		return
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
		i, _ = t.find(lineAddr)
	}
	t.slots[i] = dirSlot{key: lineAddr + 1, dirEntry: e}
	t.n++
}

// grow doubles the table (or creates it) and reinserts every entry.
func (t *dirTable) grow() {
	old, n := t.slots, t.n
	if old == nil {
		t.init(dirInitialSlots)
		return
	}
	t.init(2 * len(old))
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := t.home(s.key - 1)
		for t.slots[i].key != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
	t.n = n
}

// del removes lineAddr's entry if it has one. The hole it leaves is filled
// by the first later entry in the run whose probe passes over it, and so
// on until the run ends, so every remaining entry stays reachable from its
// home without crossing an empty slot.
func (t *dirTable) del(lineAddr uint64) {
	i, ok := t.find(lineAddr)
	if !ok {
		return
	}
	t.n--
	for j := i; ; {
		j = (j + 1) & t.mask
		s := t.slots[j]
		if s.key == 0 {
			t.slots[i] = dirSlot{}
			return
		}
		// s may fill the hole iff the hole lies on its probe from its
		// home to j: its displacement is at least the hole's distance.
		if (j-t.home(s.key-1))&t.mask >= (j-i)&t.mask {
			t.slots[i] = s
			i = j
		}
	}
}
