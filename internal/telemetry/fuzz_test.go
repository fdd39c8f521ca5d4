package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeEvents feeds arbitrary bytes to the strict event-stream
// decoder behind faultsim -check-events and the service's event streams.
// It must never panic, and every stream it accepts must survive a
// re-encode: marshal each event, decode the result again, and marshal
// once more — the two encodings must be byte-identical. Bytes are
// compared rather than values so the check does not depend on how a
// decoded field happens to be represented in memory. The seeds double as
// a schema smoke suite under plain `go test`.
func FuzzDecodeEvents(f *testing.F) {
	seeds := []string{
		``,
		"\n\n  \n",
		`{"kind":"start","t":1,"sites":576,"workers":2}`,
		`{"kind":"progress","t":2,"settled":100,"detected_total":90,"rate":1234.5,"eta_ns":400000000,"elapsed_ns":81000000}`,
		`{"kind":"site","t":3,"i":7,"site":"fwd.muxdata[EXL0].op0.b31/sa1","sig":3735928559,"detected":true,"crashed":true,"panicked":true,"journal":true}`,
		`{"kind":"quarantine","t":4,"core":2,"dead":true}`,
		`{"kind":"span","t":5,"name":"table2","elapsed_ns":1500000000}`,
		`{"kind":"finish","t":6,"sites":576,"settled":576,"detected_total":537,"elapsed_ns":900000000}`,
		"{\"kind\":\"start\",\"sites\":3}\n\n{\"kind\":\"site\",\"i\":1}\n{\"kind\":\"finish\",\"settled\":3}\n",
		`{"kind":"teleport"}`,              // unknown kind
		`{"kind":"site","verdict":"pass"}`, // unknown field
		`{"kind":"site","i":"7"}`,          // wrong type
		`{"kind":"progress","rate":1e400}`, // out-of-range float
		`{"kind":"site","site":"é\ud800"}`, // escaped non-ASCII, lone surrogate
		`null`,
		`[]`,
		`{"kind":"start"`,
		"\x00\xff garbage",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := DecodeEvents(bytes.NewReader(data))
		if err != nil {
			return // rejected cleanly
		}
		first := encodeEvents(t, events)
		again, err := DecodeEvents(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v\n%s", err, first)
		}
		if len(again) != len(events) {
			t.Fatalf("re-encoded stream decodes to %d events, want %d", len(again), len(events))
		}
		if second := encodeEvents(t, again); !bytes.Equal(first, second) {
			t.Fatalf("round trip changed the stream:\n%s\nvs\n%s", first, second)
		}
	})
}

// encodeEvents renders events as a JSONL stream, one json.Marshal per line.
func encodeEvents(t *testing.T, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range events {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal %+v: %v", e, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}
