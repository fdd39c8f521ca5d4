package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSpecDecode feeds arbitrary bytes to the job server's strict body
// decoder as a spec and normalizes whatever it accepts: neither may panic, and every
// accepted spec must normalize idempotently and survive a marshal plus
// strict decode unchanged — the properties the content address rests on.
// Build is deliberately not called: each build runs a golden simulation.
// The seeds double as a wire-format smoke suite under plain `go test`.
func FuzzSpecDecode(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`[]`,
		`{"routine":"forwarding","core":0,"strategy":"cache","multicore":false,"bitstep":1,"faults":"stuckat"}`,
		`{"strategy":"plain","multicore":true,"bitstep":8}`,
		`{"faults":"transition"}`,
		`{"routine":"hdcu","core":2,"strategy":"tcm","multicore":true,"bitstep":4}`,
		`{"routine":"icu","faults":"transition"}`, // transition needs forwarding
		`{"core":7}`,
		`{"core":-1}`,
		`{"bitstep":-3}`,
		`{"strategy":"turbo"}`,
		`{"faults":"bridging"}`,
		`{"cores":1}`,                // unknown field
		`{"core":"1"}`,               // wrong type
		`{"core":1.5}`,               // non-integer
		`{"routine":"\u00e9\u2028"}`, // escaped non-ASCII routine survives the round trip
		`{"bitstep":1} trailing`,
		`{"multicore":true`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if err := decodeStrict(bytes.NewReader(data), &spec); err != nil {
			return // rejected cleanly
		}
		n, err := spec.Normalized()
		if err != nil {
			return // invalid campaign, rejected cleanly
		}
		again, err := n.Normalized()
		if err != nil || again != n {
			t.Fatalf("Normalized not idempotent: %+v -> %+v (err %v)", n, again, err)
		}
		blob, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("marshal %+v: %v", n, err)
		}
		var back Spec
		err = decodeStrict(bytes.NewReader(blob), &back)
		if err != nil || back != n {
			t.Fatalf("round trip of %s: got %+v (err %v), want %+v", blob, back, err, n)
		}
	})
}
