package bv

import "math/bits"

// consTable is the gate hash-cons table: one open-addressing map from a
// gate's operand literals to its output literal, shared by And, Xor and
// MuxLit. It has a power-of-two number of slots, probes linearly, and
// doubles when an insert would fill three quarters of it. It starts empty
// and small, because lint builds one Solver per spec state and most of
// those build a handful of gates.
type consTable struct {
	slots []consSlot
	used  int
	shift uint // 64 - log2(len(slots)): hash() >> shift is a slot index
}

// gateKey packs a gate's operand literals. lo holds the first two
// operands; hi is 0 for an And, 1 for a Xor, and a mux's third operand.
// Operands are never the constant literals 0 and 1 (the constructors fold
// constants before the lookup), so a mux's hi is at least 2 and lo is never
// 0, which marks an empty slot.
type gateKey struct {
	lo uint64
	hi uint32
}

type consSlot struct {
	key  gateKey
	gate Lit
}

func pairKey(a, b Lit, kind uint32) gateKey {
	return gateKey{lo: uint64(a)<<32 | uint64(b), hi: kind}
}

func andKey(a, b Lit) gateKey    { return pairKey(a, b, 0) }
func xorKey(a, b Lit) gateKey    { return pairKey(a, b, 1) }
func muxKey(c, a, b Lit) gateKey { return pairKey(c, a, uint32(b)) }

// hash mixes both halves of the key; the table indexes by its top bits.
func (k gateKey) hash() uint64 {
	return (k.lo ^ uint64(k.hi)*0x9E3779B97F4A7C15) * 0xD6E8FEB86659FD93
}

// lookup returns the gate stored under k, or ok == false and the index of
// the empty slot where k belongs. The caller builds the gate and stores it
// with insert at that index before the next lookup.
func (t *consTable) lookup(k gateKey) (g Lit, slot int, ok bool) {
	if 4*(t.used+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := int(k.hash() >> t.shift); ; i = (i + 1) & mask {
		sl := &t.slots[i]
		if sl.key == k {
			return sl.gate, i, true
		}
		if sl.key.lo == 0 {
			return 0, i, false
		}
	}
}

// insert stores gate g under k in the empty slot lookup returned.
func (t *consTable) insert(slot int, k gateKey, g Lit) {
	t.slots[slot] = consSlot{key: k, gate: g}
	t.used++
}

// grow doubles the table (first allocation: 16 slots) and re-inserts every
// entry.
func (t *consTable) grow() {
	old := t.slots
	n := max(2*len(old), 16)
	t.slots = make([]consSlot, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, sl := range old {
		if sl.key.lo == 0 {
			continue
		}
		i := int(sl.key.hash() >> t.shift)
		for t.slots[i].key.lo != 0 {
			i = (i + 1) & (n - 1)
		}
		t.slots[i] = sl
	}
}
