package routing

import (
	"testing"

	"clnlr/internal/des"
	"clnlr/internal/pkt"
	"clnlr/internal/rng"
)

// scanLen is the full-scan occupancy oracle the counted Len replaced.
func scanLen(d *DupCache) int {
	n := 0
	for i := range d.rings {
		for _, e := range d.rings[i].ent {
			if e.exp != 0 {
				n++
			}
		}
	}
	return n
}

// TestDupCacheLenMatchesScan drives random interleavings of Seen, clock
// advance, sweep, grow and Reset, and checks after every step that the
// O(1) occupancy count equals the full scan.
func TestDupCacheLenMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		src := rng.New(seed)
		sim := des.NewSim()
		horizon := des.Time(1 + src.Intn(int(des.Second)))
		d := NewDupCache(sim, horizon)
		for step := 0; step < 2000; step++ {
			var op string
			switch k := src.Intn(100); {
			case k < 70:
				op = "seen"
				// Few origins and IDs, so rings fill, repeats hit and the
				// round-robin victim path runs.
				d.Seen(pkt.NodeID(src.Intn(12)-1), uint32(src.Intn(24)))
			case k < 88:
				op = "advance"
				sim.RunUntil(sim.Now() + des.Time(src.Intn(int(horizon))))
			case k < 94:
				op = "sweep"
				d.sweep(sim.Now())
			case k < 98:
				op = "grow"
				d.grow(src.Intn(40))
			default:
				op = "reset"
				horizon = des.Time(1 + src.Intn(int(des.Second)))
				d.Reset(horizon)
			}
			if got, want := d.Len(), scanLen(d); got != want {
				t.Fatalf("seed %d step %d (%s): Len()=%d, scan=%d", seed, step, op, got, want)
			}
		}
	}
}
