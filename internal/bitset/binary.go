package bitset

import (
	"encoding/binary"
	"fmt"
)

// Binary container encoding, used by the GCS3 snapshot format
// (internal/core/persist_v3.go). The encoding serializes the Set's
// CURRENT container verbatim — sparse index lists and dense words both
// round-trip without re-encoding, so a restored set pays exactly the
// footprint the writer's set did. Layout (all integers little-endian):
//
//	byte  0      container mode (0 sparse, 1 dense; any other is rejected)
//	bytes 1..9   capacity in bits (uint64)
//	bytes 9..17  payload element count (uint64): sparse indices or
//	             dense words
//	bytes 17..   payload: sparse uint32 per index; dense uint64 per word
//
// A dense set with count 0 is the legacy lazy all-clear form (nil word
// slice); it round-trips as such. FromBinary re-validates every container
// invariant, so a corrupted or hostile payload is rejected rather than
// smuggled into set algebra (where broken invariants would corrupt
// results or panic far from the parse site).

// binaryHeaderLen is the fixed prefix before the payload.
const binaryHeaderLen = 1 + 8 + 8

// AppendBinary appends the set's binary encoding to buf and returns the
// extended slice. The active container is serialized natively; the set is
// not mutated.
func (s *Set) AppendBinary(buf []byte) []byte {
	buf = append(buf, s.mode)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.n))
	switch s.mode {
	case modeSparse:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s.sparse)))
		for _, v := range s.sparse {
			buf = binary.LittleEndian.AppendUint32(buf, v)
		}
	default:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s.words)))
		for _, w := range s.words {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	return buf
}

// BinarySize returns the exact length AppendBinary would produce.
func (s *Set) BinarySize() int {
	if s.mode == modeDense {
		return binaryHeaderLen + 8*len(s.words)
	}
	return binaryHeaderLen + 4*len(s.sparse)
}

// FromBinary decodes one set from the front of data, returning the set and
// the number of bytes consumed. Every container invariant is re-validated:
// sparse indices must be strictly increasing and in range, dense payloads
// exactly ⌈n/64⌉ words (or absent) with the tail bits of the last word
// clear, and the sparse container is only legal at capacities whose
// indices fit uint32. Any mode byte but 0 and 1 is rejected. Errors
// describe the first violation.
func FromBinary(data []byte) (*Set, int, error) {
	if len(data) < binaryHeaderLen {
		return nil, 0, fmt.Errorf("bitset: binary header truncated: %d bytes", len(data))
	}
	mode := data[0]
	capBits := binary.LittleEndian.Uint64(data[1:9])
	count := binary.LittleEndian.Uint64(data[9:17])
	const maxInt = uint64(^uint(0) >> 1)
	if capBits > maxInt {
		return nil, 0, fmt.Errorf("bitset: capacity %d overflows int", capBits)
	}
	n := int(capBits)
	payload := data[binaryHeaderLen:]
	need := func(elemBytes uint64) ([]byte, error) {
		total := count * elemBytes
		if count > maxInt/8 || uint64(len(payload)) < total {
			return nil, fmt.Errorf("bitset: binary payload truncated: need %d elements, have %d bytes", count, len(payload))
		}
		return payload[:total], nil
	}
	s := &Set{n: n, mode: mode}
	switch mode {
	case modeSparse:
		if !fits32(n) {
			return nil, 0, fmt.Errorf("bitset: sparse container illegal at capacity %d", n)
		}
		p, err := need(4)
		if err != nil {
			return nil, 0, err
		}
		if count > 0 {
			idx := make([]uint32, count)
			prev := int64(-1)
			for i := range idx {
				v := binary.LittleEndian.Uint32(p[4*i:])
				if int64(v) <= prev {
					return nil, 0, fmt.Errorf("bitset: sparse indices not strictly increasing at element %d", i)
				}
				if uint64(v) >= capBits {
					return nil, 0, fmt.Errorf("bitset: sparse index %d out of range [0,%d)", v, n)
				}
				prev = int64(v)
				idx[i] = v
			}
			s.sparse = idx
		}
	case modeDense:
		words := uint64(n+wordBits-1) / wordBits
		if count != 0 && count != words {
			return nil, 0, fmt.Errorf("bitset: dense payload has %d words, capacity %d needs %d", count, n, words)
		}
		p, err := need(8)
		if err != nil {
			return nil, 0, err
		}
		if count > 0 {
			w := make([]uint64, count)
			for i := range w {
				w[i] = binary.LittleEndian.Uint64(p[8*i:])
			}
			if rem := n % wordBits; rem != 0 && w[len(w)-1]>>rem != 0 {
				return nil, 0, fmt.Errorf("bitset: dense tail bits beyond capacity %d are set", n)
			}
			s.words = w
		}
	default:
		return nil, 0, fmt.Errorf("bitset: unknown container mode %d", mode)
	}
	return s, s.BinarySize(), nil
}
