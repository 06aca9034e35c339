package media

// Flat per-macroblock event arena.
//
// A TokenMB is what the VLD hands RLSQ where they are separate tasks: in
// the copro, kpn and vldstream models (Fig. 8), in IndexGOPs, and as the
// oracle of the decoder's fused parseMBCoef. It owns one flat arena; the
// parsers append events there and publish each block's events as a
// sub-slice view, so a TokenMB reused across macroblocks (Reset between
// them) parses without allocating.
//
// Sizing invariant: the parse paths tolerate at most 64 events per
// block and append the 65th before declaring overflow, so the arena
// reserves 65 slots per block. Appends therefore NEVER reallocate the
// backing array — earlier blocks' Events views stay valid even on the
// overflow error path.

const (
	// maxBlockEvents is the parser's per-block event limit (one event
	// per coefficient of an 8×8 block).
	maxBlockEvents = 64
	// tokenArenaCap is the worst-case arena occupancy: 64 events plus
	// the transient 65th overflow-detection slot, per block.
	tokenArenaCap = BlocksPerMB * (maxBlockEvents + 1)
)

// Reset clears the token for reuse, retaining the arena's capacity so
// steady-state reuse does not allocate. The previously published Events
// views become invalid (they alias the arena being recycled).
func (t *TokenMB) Reset() {
	t.CBP = 0
	t.Events = [BlocksPerMB][]RunLevel{}
	t.arena = t.arena[:0]
}

// ensureArena lazily allocates the worst-case backing array. Lazy so a
// zero-value TokenMB (skip macroblocks, error returns) stays allocation
// free and deep-equal to TokenMB{}.
func (t *TokenMB) ensureArena() {
	if t.arena == nil {
		t.arena = make([]RunLevel, 0, tokenArenaCap)
	}
}

// sealBlock publishes arena[start:] as block b's events. Empty blocks
// publish nil (matching the historical per-block allocation behavior);
// non-empty blocks publish a full-capacity-clamped view so an append on
// the published slice can never clobber later arena contents.
func (t *TokenMB) sealBlock(b, start int) {
	if start == len(t.arena) {
		t.Events[b] = nil
		return
	}
	t.Events[b] = t.arena[start:len(t.arena):len(t.arena)]
}

// SetBlockRunLength run-length encodes the zigzag-ordered block zz into
// the token's arena and publishes it as block b's events: the zero-alloc
// replacement for `tok.Events[b] = RunLength(&zz)`.
func (t *TokenMB) SetBlockRunLength(b int, zz *Block) {
	t.ensureArena()
	start := len(t.arena)
	t.arena = AppendRunLength(t.arena, zz)
	t.sealBlock(b, start)
}

// parseBlockEventsInto reads one block's run/level events up to EOB into
// the token's arena, publishing them as block b's events.
func parseBlockEventsInto(r *BitReader, tok *TokenMB, b int) error {
	tok.ensureArena()
	start := len(tok.arena)
	for {
		rl, eob, _ := DecodeRunLevel(r)
		if err := r.Err(); err != nil {
			return err
		}
		if eob {
			tok.sealBlock(b, start)
			return nil
		}
		tok.arena = append(tok.arena, rl)
		if len(tok.arena)-start > maxBlockEvents {
			return errBlockEvents
		}
	}
}
