// Package fixture exercises sdamvet/tapemut. Lines with a trailing
// want comment must produce a tapemut diagnostic whose message contains
// substr; every other line must stay silent.
package fixture

import "repro/internal/tape"

type holder struct {
	tp tape.Tape
	pt *tape.Tape
}

// Whole-value overwrite through a shared tape pointer: every cell
// replaying it sees the columns change under them.
func overwrite(t *tape.Tape) {
	*t = tape.Tape{} // want "store through tape.Tape"
}

// Overwriting a tape element in a shared slice mutates the tape value
// in place.
func elementOverwrite(tapes []tape.Tape, i int) {
	tapes[i] = tape.Tape{} // want "store through tape.Tape"
}

// Overwriting an embedded tape value is the same store one selector in.
func fieldOverwrite(h *holder) {
	h.tp = tape.Tape{} // want "store through tape.Tape"
}

// Negative: storing tape *pointers* rebinds a reference, it does not
// touch the tape.
func rebind(h *holder, t *tape.Tape) {
	h.pt = t
	var p *tape.Tape
	p = t
	_ = p
}

// Negative: reads are the whole point of sharing.
func read(t *tape.Tape, lay *tape.Layout) (int, error) {
	streams, err := t.Streams(lay)
	if err != nil {
		return 0, err
	}
	return t.Refs() + t.NumStreams() + len(streams), nil
}

// Negative: Layout is the mutable pre-record accumulator, not a tape.
func noteLayout(lay *tape.Layout) {
	lay.Note("fixture", 0, 64)
}

// Suppressed: the marker keeps a reviewed line silent (and must itself
// count as used, or the unused-suppression audit would flag it).
func suppressed(t *tape.Tape) {
	//lint:ignore sdamvet/tapemut fixture exercises the suppression path
	*t = tape.Tape{}
}
