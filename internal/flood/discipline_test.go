package flood

// The Protocol.Intents contract that lets the engine admit a protocol's
// intents without a sort or a link lookup: each slot's intents ascend by
// receiver, and every non-zero PRR is the link's.

import (
	"testing"

	"ldcflood/internal/sim"
	"ldcflood/internal/topology"
)

// contractChecked wraps a protocol and checks every slot's intents
// against the contract before the engine sees them.
type contractChecked struct {
	sim.Protocol
	t       *testing.T
	label   string
	csr     *topology.CSR
	intents int
}

func (c *contractChecked) Intents(w *sim.World) []sim.Intent {
	out := c.Protocol.Intents(w)
	for i, in := range out {
		if i > 0 && in.To < out[i-1].To {
			c.t.Errorf("%s, slot %d: intent %+v after one to receiver %d", c.label, w.Now(), in, out[i-1].To)
		}
		if in.PRR != 0 && in.PRR != c.csr.PRROf(in.From, in.To) {
			c.t.Errorf("%s, slot %d: intent %+v, link PRR %v", c.label, w.Now(), in, c.csr.PRROf(in.From, in.To))
		}
		if in.PRR == 0 {
			c.t.Errorf("%s, slot %d: intent %+v leaves its PRR to the engine", c.label, w.Now(), in)
		}
	}
	c.intents += len(out)
	return out
}

// TestIntentsContract runs every protocol × every fault family (plus the
// unfaulted case) behind the checking wrapper. Every protocol in the
// package fills in each intent's PRR, so a zero PRR fails too.
func TestIntentsContract(t *testing.T) {
	schedules := faultSchedules()
	schedules["none"] = nil
	g := topology.Grid(6, 6, 0.8)
	for name, fs := range schedules {
		cfg := shardCfg(g, fs, 1234)
		for _, protocol := range Names() {
			p, err := New(protocol)
			if err != nil {
				t.Fatal(err)
			}
			c := &contractChecked{Protocol: p, t: t, label: protocol + "/" + name, csr: g.CSR()}
			if res, _ := runWith(t, cfg, c); res.Transmissions == 0 || c.intents == 0 {
				t.Errorf("%s: %d intents, %d transmissions: the contract went unexercised", c.label, c.intents, res.Transmissions)
			}
		}
	}
}
