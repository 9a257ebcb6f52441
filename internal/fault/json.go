package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Parse decodes a JSON fault spec. The document mirrors Schedule's JSON
// tags; unknown fields are rejected so a typoed key fails loudly instead
// of silently injecting nothing:
//
//	{
//	  "links":   [{"min_prr": 0.2, "max_prr": 0.8,
//	               "pgb": 0.02, "pbg": 0.1, "bad_scale": 0.3}],
//	  "crashes": [{"node": 17, "at": 400, "reboot_at": 900}],
//	  "jams":    [{"from": 200, "until": 260,
//	               "x": 150, "y": 80, "radius": 40}]
//	}
//
// In a crash entry, omitting reboot_at (or giving any negative value)
// means a permanent failure: the node never rejoins.
//
// Parse performs only structural decoding; call Schedule.Validate with the
// target topology for semantic checks (the engine re-validates at run
// time).
func Parse(data []byte) (*Schedule, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	s := &Schedule{}
	if err := dec.Decode(s); err != nil {
		return nil, fmt.Errorf("fault: bad spec: %w", err)
	}
	// Trailing garbage after the document is a structural error too.
	if dec.More() {
		return nil, fmt.Errorf("fault: bad spec: trailing data after JSON document")
	}
	return s, nil
}

// UnmarshalJSON decodes one crash entry. An omitted reboot_at defaults to
// -1 (permanent failure) — without the default it would decode to slot 0,
// which Validate always rejects with a misleading "reboots at slot 0"
// error, leaving no way to express permanence by omission. Unknown fields
// are rejected, matching Parse's strictness (custom unmarshalers do not
// inherit the outer decoder's DisallowUnknownFields).
func (c *Crash) UnmarshalJSON(data []byte) error {
	raw := struct {
		Node     int    `json:"node"`
		At       int64  `json:"at"`
		RebootAt *int64 `json:"reboot_at"`
	}{}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	c.Node = raw.Node
	c.At = raw.At
	if raw.RebootAt != nil {
		c.RebootAt = *raw.RebootAt
	} else {
		c.RebootAt = -1
	}
	return nil
}
