package pack

// Field widths. See doc.go for the accounting that justifies them.
const (
	PtrBits = 26 // link value: 24-bit handle + 2 mark/flag bits
	EraBits = 38
	TagBits = 26

	HandleBits = 24

	// MarkBit and FlagBit are the two spare bits of a link value above the
	// 24-bit handle. Lock-free structures use them for logical deletion
	// (Harris–Michael mark) and for the Natarajan–Mittal flag/tag pair.
	MarkBit = 1 << HandleBits
	FlagBit = 1 << (HandleBits + 1)

	// HandleMask extracts the handle from a link value.
	HandleMask = 1<<HandleBits - 1
	// PtrMask extracts a full link value (handle + mark bits).
	PtrMask = 1<<PtrBits - 1

	// Inf is the paper's ∞ era: a reservation holding Inf protects nothing.
	Inf = 1<<EraBits - 1
	// MaxEra bounds the era clock: the tick that would reach MaxEra
	// panics, so every era the clock holds is below it (the largest is
	// MaxEra-1), and no era ever wraps into Inf.
	MaxEra = Inf - 1

	// InvPtr is the paper's invptr: a link value that no data structure may
	// ever store. Its presence in a ResPair means "result not yet produced".
	InvPtr = PtrMask

	tagMask = 1<<TagBits - 1
	valMask = 1<<EraBits - 1
)

// EraTag packs a per-reservation {era, tag} pair (paper Figure 3, the
// reservations array) into one word: era in the high 38 bits, tag in the
// low 26 bits.
type EraTag uint64

// MakeEraTag builds an EraTag. era must be < 2^38 (Inf allowed); tag is
// taken modulo 2^26, matching the tag's wrap-around semantics.
func MakeEraTag(era, tag uint64) EraTag {
	return EraTag(era<<TagBits | tag&tagMask)
}

// Era returns the era field.
func (et EraTag) Era() uint64 { return uint64(et) >> TagBits }

// Tag returns the tag field.
func (et EraTag) Tag() uint64 { return uint64(et) & tagMask }

// WithEra returns et with the era field replaced and the tag preserved.
func (et EraTag) WithEra(era uint64) EraTag {
	return MakeEraTag(era, et.Tag())
}

// ResPair packs a slow-path {pointer, value} result pair (paper Figure 3,
// state.result) into one word: link value in the high 26 bits, era-or-tag
// in the low 38 bits.
//
// Input convention (request posted): ptr == InvPtr and val == the slow-path
// cycle tag. Output convention (result produced): ptr == the dereferenced
// link value and val == the era under which it was read.
type ResPair uint64

// MakeRes builds a ResPair from a link value and an era or tag.
func MakeRes(ptr, val uint64) ResPair {
	return ResPair((ptr&PtrMask)<<EraBits | val&valMask)
}

// Ptr returns the link-value field.
func (rp ResPair) Ptr() uint64 { return uint64(rp) >> EraBits }

// Val returns the era-or-tag field.
func (rp ResPair) Val() uint64 { return uint64(rp) & valMask }

// Pending reports whether the pair still carries a helping request
// (pointer field is InvPtr).
func (rp ResPair) Pending() bool { return rp.Ptr() == InvPtr }

// Handle extracts the arena handle from a link value, dropping mark bits.
func Handle(link uint64) uint64 { return link & HandleMask }

// Marked reports whether a link value carries the Harris–Michael mark bit.
func Marked(link uint64) bool { return link&MarkBit != 0 }

// Flagged reports whether a link value carries the flag bit.
func Flagged(link uint64) bool { return link&FlagBit != 0 }
