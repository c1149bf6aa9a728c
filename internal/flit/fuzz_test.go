package flit

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/comp"
	"repro/internal/exec"
	"repro/internal/link"
	"repro/internal/prog"
)

// fuzzTest is a minimal TestCase whose identity is its name — the handle
// the key fuzzer uses to vary the test component of a RunKey.
type fuzzTest struct{ name string }

func (t fuzzTest) Name() string                                 { return t.name }
func (t fuzzTest) Root() string                                 { return "S" }
func (t fuzzTest) GetInputsPerRun() int                         { return 1 }
func (t fuzzTest) GetDefaultInput() []float64                   { return []float64{1} }
func (t fuzzTest) Run([]float64, *link.Machine) (Result, error) { return Result{}, nil }
func (t fuzzTest) Compare(baseline, other Result) float64       { return 0 }

// fuzzRunKey builds the cache/artifact key for one (program, plan, test)
// tuple assembled from free-form strings.
func fuzzRunKey(t *testing.T, progName, compiler, opt, switches, test string) string {
	t.Helper()
	p := prog.New(progName)
	p.AddFile("f.cpp", &prog.Symbol{Name: "S", Exported: true, Work: 1})
	ex, err := link.FullBuild(p, comp.Compilation{Compiler: compiler, OptLevel: opt, Switches: switches})
	if err != nil {
		t.Fatalf("FullBuild(%q,%q,%q,%q): %v", progName, compiler, opt, switches, err)
	}
	return RunKey(ex, fuzzTest{name: test})
}

// FuzzRunKeyInjective is the shard/cache key safety net: no two distinct
// (program, build plan, test) tuples may serialize to the same key.
// Without the KeyEscape encoding, free-form names containing the key
// format's structural characters ('|', '=', NUL) could collide — merged
// shard artifacts would then silently answer one tuple's evaluation with
// another tuple's result.
func FuzzRunKeyInjective(f *testing.F) {
	f.Add("quickstart", "g++", "-O2", "", "Quickstart",
		"quickstart", "g++", "-O2", "-mavx2 -mfma", "Quickstart")
	f.Add("p", "g++", "-O2", "", "T",
		"p", "g++", "-O2", "", "T2")
	// Structural-character abuse: without escaping, these families collide.
	f.Add("p|base=g++|-O2|", "x", "-O0", "", "T",
		"p", "g++", "-O2", "", "T")
	f.Add("p", "g++ -O2", "-O0", "", "T",
		"p", "g++", "-O2 -O0", "", "T")
	f.Add("p", "g", "f:x", "y", "T",
		"p", "g", "f:x|y", "", "T")
	f.Add("p", "c", "-O1", "a", "T\x00U",
		"p", "c", "-O1", "a\x00T", "U")
	f.Add("p", "c%7C", "-O1", "", "T",
		"p", "c|", "-O1", "", "T")
	f.Fuzz(func(t *testing.T,
		prog1, comp1, opt1, sw1, test1,
		prog2, comp2, opt2, sw2, test2 string) {
		same := prog1 == prog2 && comp1 == comp2 && opt1 == opt2 && sw1 == sw2 && test1 == test2
		k1 := fuzzRunKey(t, prog1, comp1, opt1, sw1, test1)
		k2 := fuzzRunKey(t, prog2, comp2, opt2, sw2, test2)
		if same && k1 != k2 {
			t.Fatalf("identical tuples produced different keys:\n%q\n%q", k1, k2)
		}
		if !same && k1 == k2 {
			t.Fatalf("distinct tuples collided on key %q:\n(%q,%q,%q,%q,%q)\n(%q,%q,%q,%q,%q)",
				k1, prog1, comp1, opt1, sw1, test1, prog2, comp2, opt2, sw2, test2)
		}
	})
}

// FuzzArtifactDecode hardens the artifact ingestion path against
// malformed files: whatever bytes arrive, decoding plus validation must
// either reject with an error or yield an artifact that imports cleanly —
// never panic, and never silently merge a malformed file. In particular a
// duplicate key (the same run recorded twice, however the copies relate)
// must be rejected: first-in-wins import would otherwise let one copy
// silently answer for the other.
func FuzzArtifactDecode(f *testing.F) {
	valid := func() []byte {
		c := NewCache()
		c.runs.Do("k1", func() (runVal, error) { return runVal{res: ScalarResult(1.5)}, nil })
		c.runs.Do("k2", func() (runVal, error) { return runVal{res: VecResult([]float64{1, 2})}, nil })
		c.costs.Do("k1", func() (float64, error) { return 2.5, nil })
		var buf bytes.Buffer
		if err := c.Export(exec.Shard{}, []string{"run"}).WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-object
	// Trailing data after the JSON object: a concatenated second artifact, a
	// stray brace pair, raw garbage. ReadArtifact must reject all of them —
	// json.Decoder reads a stream, and accepting "artifact + anything" would
	// let a torn rewrite (new file + tail of the old) import as valid.
	f.Add(append(append([]byte{}, valid...), valid...))
	f.Add(append(append([]byte{}, valid...), []byte("{}")...))
	f.Add(append(append([]byte{}, valid...), []byte("x")...))
	f.Add(append(append([]byte{}, valid...), []byte("\n \t\n")...)) // whitespace only: fine
	f.Add(bytes.Replace(valid, []byte(`"engine"`), []byte(`"en�ine"`), 1))
	dup := fmt.Sprintf(`{"version":%d,"engine":%q,"shard":{"index":0,"count":1},`+
		`"runs":[{"key":"k","scalar":1},{"key":"k","scalar":2}],"costs":[]}`,
		ArtifactVersion, EngineVersion)
	f.Add([]byte(dup))
	f.Add([]byte(strings.Replace(dup, `"scalar":2`, `"scalar":1`, 1))) // agreeing duplicate
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(fmt.Sprintf(`{"version":%d,"engine":%q,"shard":{"index":5,"count":2}}`,
		ArtifactVersion, EngineVersion))) // impossible shard coordinates
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadArtifact(bytes.NewReader(data))
		if err != nil {
			return // rejected at decode: fine
		}
		dupKey := func() bool {
			seenRuns, seenCosts := map[string]bool{}, map[string]bool{}
			for _, r := range a.Runs {
				if seenRuns[r.Key] {
					return true
				}
				seenRuns[r.Key] = true
			}
			for _, co := range a.Costs {
				if seenCosts[co.Key] {
					return true
				}
				seenCosts[co.Key] = true
			}
			return false
		}()
		checkErr := a.Check()
		if dupKey && checkErr == nil {
			t.Fatalf("duplicate-key artifact passed Check: %s", data)
		}
		c := NewCache()
		impErr := c.Import(a)
		if (checkErr == nil) != (impErr == nil) {
			t.Fatalf("Check (%v) and Import (%v) disagree", checkErr, impErr)
		}
		if impErr != nil {
			return
		}
		// An accepted artifact must have imported exactly its distinct keys,
		// and none of them into the memo.
		if got := len(c.importedRuns); got != len(a.Runs) {
			t.Fatalf("accepted artifact with %d runs imported %d records", len(a.Runs), got)
		}
		if got := len(c.importedCosts); got != len(a.Costs) {
			t.Fatalf("accepted artifact with %d costs imported %d records", len(a.Costs), got)
		}
		if c.runs.Len() != 0 || c.costs.Len() != 0 {
			t.Fatal("Import wrote into the memo")
		}
	})
}

// FuzzArtifactVersionCheck: an artifact is accepted exactly when both its
// format version and engine version match this build — merge must reject
// everything else, whatever the foreign version strings look like.
func FuzzArtifactVersionCheck(f *testing.F) {
	f.Add(EngineVersion, ArtifactVersion)
	f.Add("flit-engine/1", ArtifactVersion)
	f.Add("", ArtifactVersion)
	f.Add(EngineVersion, 0)
	f.Add(EngineVersion+" ", ArtifactVersion)
	f.Fuzz(func(t *testing.T, engine string, version int) {
		a := &Artifact{Version: version, Engine: engine}
		err := a.Check()
		wantOK := engine == EngineVersion && version == ArtifactVersion
		if wantOK && err != nil {
			t.Fatalf("matching versions rejected: %v", err)
		}
		if !wantOK && err == nil {
			t.Fatalf("artifact with engine=%q version=%d accepted by a %q/v%d build",
				engine, version, EngineVersion, ArtifactVersion)
		}
		if err != nil {
			if merr := NewCache().Import(a); merr == nil {
				t.Fatal("Import accepted an artifact Check rejects")
			}
		}
	})
}
