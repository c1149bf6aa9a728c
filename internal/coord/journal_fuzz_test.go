package coord_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/flit"
)

// fuzzSpec mirrors the journals the seeds are built around: a two-shard
// campaign under this build's engine, so a seed with a valid ID can be
// adopted and its scheduling invariants probed.
func fuzzJournalSeed(mutant string) string {
	spec := coord.Spec{Engine: flit.EngineVersion, Command: []string{"experiments", "table4"}, Shards: 2}
	id := coord.CampaignID(spec)
	base := `{"version":3,"engine":%q,"campaigns":[{"id":%q,"spec":{"engine":%q,"command":["experiments","table4"],"shards":2},"seq":4,"releases":1,%s"shards":[%s]}]}`
	switch mutant {
	case "quarantined":
		return fmt.Sprintf(base, flit.EngineVersion, id, flit.EngineVersion,
			`"fail_reports":2,`,
			`{"attempts":5,"quarantined":true,"failures":[{"worker":"w1","attempt":5,"error":"boom","excerpt":"stack"}]},{}`)
	case "absurd-attempts":
		return fmt.Sprintf(base, flit.EngineVersion, id, flit.EngineVersion,
			`"fail_reports":9007199254740993,`,
			`{"attempts":1152921504606846976},{"attempts":-9007199254740993}`)
	case "attempts-beyond-int32":
		return fmt.Sprintf(base, flit.EngineVersion, id, flit.EngineVersion,
			"", `{"attempts":2147483648},{"attempts":2147483647}`)
	case "unknown-terminal":
		return fmt.Sprintf(base, flit.EngineVersion, id, flit.EngineVersion,
			`"state":"zombie","fail_reports":1,`,
			`{"quarantined":true,"state":"undead","failures":[{"worker":"w1","attempt":1,"error":"?"}]},{}`)
	case "truncated-failure":
		return fmt.Sprintf(base, flit.EngineVersion, id, flit.EngineVersion,
			`"fail_reports":1,`,
			`{"attempts":2,"failures":[{"worker":"w1","attempt":`)
	default:
		return fmt.Sprintf(base, flit.EngineVersion, id, flit.EngineVersion, "", `{},{}`)
	}
}

// FuzzJournalDecode throws arbitrary bytes at journal recovery: whatever
// the coord.json holds, opening the directory must never panic, only a
// current-version journal may be adopted, and an adopted one must honor
// the containment invariants — above all, a quarantined shard must never
// come back leasable.
func FuzzJournalDecode(f *testing.F) {
	for _, m := range []string{"valid", "quarantined", "absurd-attempts", "attempts-beyond-int32", "unknown-terminal", "truncated-failure"} {
		f.Add([]byte(fuzzJournalSeed(m)))
	}
	// Older and newer formats: refusal inputs.
	f.Add([]byte(`{"version":2,"engine":"` + flit.EngineVersion + `","campaigns":[]}`))
	f.Add([]byte(`{"version":1,"spec":{"engine":"` + flit.EngineVersion + `","command":["x"],"shards":1},"shards":[{}]}`))
	f.Add([]byte(`{"version":99,"engine":"flit-go/future"}`))
	f.Add([]byte(`{"version":3`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "coord.json"), raw, 0o644); err != nil {
			t.Skip()
		}
		c, err := coord.New(dir, coord.Options{LeaseTTL: time.Minute})
		if err != nil {
			return // refusal is always a legal answer to hostile bytes
		}
		var probe struct {
			Version int `json:"version"`
		}
		if json.Unmarshal(raw, &probe) == nil && probe.Version != coord.JournalVersion {
			t.Fatalf("adopted a v%d journal; this build reads only v%d", probe.Version, coord.JournalVersion)
		}
		for _, ci := range c.Campaigns() {
			st, err := c.Status(ci.ID)
			if err != nil {
				t.Fatalf("adopted campaign %s does not answer status: %v", ci.ID, err)
			}
			quarantined := make(map[int]bool, len(st.Quarantined))
			for _, i := range st.Quarantined {
				quarantined[i] = true
				if i < 0 || i >= st.Shards {
					t.Fatalf("campaign %s quarantines out-of-range shard %d", ci.ID, i)
				}
				if st.Attempts[i] < 0 {
					t.Fatalf("campaign %s adopted negative attempts on shard %d", ci.ID, st.Attempts[i])
				}
			}
			// Drain every grant the campaign will give: none may be a
			// quarantined shard, and grants must stop (no infinite lease loop).
			for n := 0; n <= st.Shards; n++ {
				g, state, err := c.Lease(ci.ID, "fuzz-worker")
				if err != nil || state != coord.Granted {
					break
				}
				if quarantined[g.Shard] {
					t.Fatalf("campaign %s resurrected quarantined shard %d as leasable", ci.ID, g.Shard)
				}
				if n == st.Shards {
					t.Fatalf("campaign %s granted more leases than it has shards", ci.ID)
				}
			}
		}
	})
}
