package radio

import "testing"

// decodeOps turns a fuzz byte stream into a bounded differential op
// schedule: each op is 3 bytes (kind, radio, arg). Attach ops are capped
// so a pathological input cannot grow the deployment without bound.
func decodeOps(data []byte) []mediumOp {
	const maxOps = 120
	const maxAttach = 6
	var ops []mediumOp
	attached := 0
	for i := 0; i+2 < len(data) && len(ops) < maxOps; i += 3 {
		kind := int(data[i]) % 5
		if kind == 4 {
			if attached >= maxAttach {
				kind = 0
			} else {
				attached++
			}
		}
		ops = append(ops, mediumOp{
			kind:  kind,
			radio: int(data[i+1]),
			arg:   int(data[i+2]),
		})
	}
	return ops
}

// FuzzMediumDifferential drives the memoised, legacy-indexed and
// exhaustive-reference transmit paths through an arbitrary interleaving
// of transmissions, motion, retunes, crash/recover and mid-run attaches,
// and requires bit-identical listener logs, per-op receiver states and
// counters from all three.
// It is the adversarial extension of TestMobilityInvalidationTorture:
// anything that desynchronises an audible set from ground truth shows up
// as a log divergence here.
func FuzzMediumDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 2, 2, 0, 3, 3}) // overlapping tx burst
	f.Add([]byte{0, 0, 0, 1, 0, 9, 0, 0, 1})          // tx, move, tx
	f.Add([]byte{0, 5, 2, 2, 5, 1, 0, 5, 3})          // rated tx, retune, tx
	f.Add([]byte{3, 4, 0, 0, 4, 0, 3, 4, 1, 0, 4, 2}) // crash, tx attempt, recover, tx
	f.Add([]byte{4, 0, 7, 0, 12, 0, 1, 12, 50, 0, 12, 1})
	f.Add([]byte{
		0, 0, 0, 0, 6, 1, 1, 3, 200, 2, 9, 1, 0, 9, 2,
		3, 2, 0, 0, 2, 0, 4, 0, 3, 0, 12, 0, 3, 2, 1, 0, 2, 4,
	})
	// Three overlapping rated transmissions while radio 1, locked onto
	// the first, crashes mid-reception and recovers before it ends.
	f.Add([]byte{0, 0, 1, 0, 11, 2, 3, 1, 0, 0, 8, 4, 3, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeOps(data)
		if len(ops) == 0 {
			return
		}
		compareTiers(t, ops)
	})
}
