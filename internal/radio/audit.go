package radio

import (
	"fmt"
	"math"
)

// AuditCoherence cross-checks the Medium's dense hot state — the radio
// leg of the runtime auditor (Scenario.Audit). It verifies:
//
//   - every per-radio dense slice has one entry per attached radio,
//     csThresh mirrors each radio's CsThreshW, and nDown counts the
//     radios that are down;
//   - txing[id] agrees with txOf[id], and the in-flight count matches;
//   - each in-flight transmission's touched and rxPower are parallel and
//     name only attached receivers;
//   - nlive[rx] equals the number of in-flight transmissions touching rx,
//     and energy[rx] their summed rxPower at rx (to float tolerance — the
//     incremental add/subtract bookkeeping drifts by ulps, never by a
//     term), both re-derived from the transmissions;
//   - the locked-on arrival (current) references an in-flight frame;
//   - every audible set at the current epoch is ID-sorted, self-free,
//     in range, and has parallel member slices.
//
// Read-only; returns the first violation found, or nil.
func (m *Medium) AuditCoherence() error {
	n := len(m.radios)
	for _, l := range []struct {
		name string
		len  int
	}{
		{"rfp", len(m.rfp)}, {"csThresh", len(m.csThresh)}, {"chans", len(m.chans)}, {"downs", len(m.downs)},
		{"txing", len(m.txing)}, {"busys", len(m.busys)}, {"energy", len(m.energy)},
		{"nlive", len(m.nlive)}, {"current", len(m.current)}, {"txOf", len(m.txOf)},
		{"listeners", len(m.listeners)}, {"aud", len(m.aud)},
	} {
		if l.len != n {
			return fmt.Errorf("radio: audit: %d radios but len(%s)=%d", n, l.name, l.len)
		}
	}

	down := 0
	for id := 0; id < n; id++ {
		if m.downs[id] {
			down++
		}
		if m.csThresh[id] != m.rfp[id].CsThreshW {
			return fmt.Errorf("radio: audit: radio %d csThresh %g but CsThreshW %g", id, m.csThresh[id], m.rfp[id].CsThreshW)
		}
	}
	if down != m.nDown {
		return fmt.Errorf("radio: audit: %d radios down but nDown=%d", down, m.nDown)
	}

	inFlight := 0
	count := make([]int32, n)
	sum := make([]float64, n)
	for id := 0; id < n; id++ {
		t := m.txOf[id]
		if m.txing[id] != (t != nil) {
			return fmt.Errorf("radio: audit: radio %d txing=%v but txOf nil=%v", id, m.txing[id], t == nil)
		}
		if t == nil {
			continue
		}
		inFlight++
		if int(t.src) != id {
			return fmt.Errorf("radio: audit: radio %d in-flight transmission claims src %d", id, t.src)
		}
		if len(t.touched) != len(t.rxPower) {
			return fmt.Errorf("radio: audit: radio %d transmission slices not parallel (%d/%d)",
				id, len(t.touched), len(t.rxPower))
		}
		for i, rx := range t.touched {
			if rx < 0 || int(rx) >= n {
				return fmt.Errorf("radio: audit: radio %d touches out-of-range receiver %d", id, rx)
			}
			count[rx]++
			sum[rx] += t.rxPower[i]
		}
	}
	if inFlight != m.txInFlight {
		return fmt.Errorf("radio: audit: txInFlight=%d but %d transmissions in flight", m.txInFlight, inFlight)
	}

	for rx := 0; rx < n; rx++ {
		if m.nlive[rx] != count[rx] {
			return fmt.Errorf("radio: audit: receiver %d counts %d live arrivals but %d in-flight transmissions touch it",
				rx, m.nlive[rx], count[rx])
		}
		if diff := math.Abs(m.energy[rx] - sum[rx]); diff > 1e-6*sum[rx]+1e-18 {
			return fmt.Errorf("radio: audit: receiver %d energy %g but live arrivals sum to %g", rx, m.energy[rx], sum[rx])
		}
		if cur := m.current[rx].t; cur != nil {
			src := int(cur.src)
			if src < 0 || src >= n || m.txOf[src] != cur {
				return fmt.Errorf("radio: audit: receiver %d locked onto a transmission not in flight", rx)
			}
		}
	}

	for id := 0; id < n; id++ {
		a := &m.aud[id]
		if a.epoch != m.audEpoch {
			continue // stale or never built: rebuilt lazily, contents unused
		}
		if len(a.rxID) != len(a.power) || len(a.rxID) != len(a.refOK) {
			return fmt.Errorf("radio: audit: radio %d audible set slices not parallel (%d/%d/%d)",
				id, len(a.rxID), len(a.power), len(a.refOK))
		}
		prev := int32(-1)
		for _, rid := range a.rxID {
			if rid < 0 || int(rid) >= n {
				return fmt.Errorf("radio: audit: radio %d audible set member %d out of range", id, rid)
			}
			if int(rid) == id {
				return fmt.Errorf("radio: audit: radio %d audible set contains itself", id)
			}
			if rid <= prev {
				return fmt.Errorf("radio: audit: radio %d audible set not strictly ID-sorted at %d", id, rid)
			}
			prev = rid
		}
	}
	return nil
}
