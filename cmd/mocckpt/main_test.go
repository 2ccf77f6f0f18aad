package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"moc"
	"moc/internal/rng"
	"moc/internal/storage/cas"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// fixture writes two checkpoint directories: dir holds a fleet of two
// jobs (a base and a frozen-expert fork) on one FSStore, and sharded one
// round over two FSStore shards (shard-000, shard-001).
func fixture(t *testing.T) (dir, sharded string) {
	t.Helper()
	root := t.TempDir()
	dir, sharded = filepath.Join(root, "fleet"), filepath.Join(root, "sharded")
	cfg := moc.Config{
		Layers: 2, Hidden: 16, Experts: 4, TopK: 2,
		Vocab: 32, Window: 4, BatchSize: 8,
		LR: 0.01, Seed: 3, Interval: 5,
	}
	train := func(sys *moc.System, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		if _, err := sys.RunTo(sys.Iteration() + 10); err != nil {
			t.Fatal(err)
		}
		if err := sys.FlushCheckpoints(); err != nil {
			t.Fatal(err)
		}
	}

	store, err := moc.NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := moc.NewFleet(store, moc.FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base, err := f.NewSystem(cfg, "base")
	train(base, err)
	train(base.ForkOnFleet(f, "ft-law", moc.NewCorpus("law", 32, 11), moc.Config{Interval: 5, FreezeExperts: true}))

	shards := make([]moc.PersistStore, 2)
	for i := range shards {
		if shards[i], err = moc.NewFSStore(filepath.Join(sharded, fmt.Sprintf("shard-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	ss, err := moc.NewShardedStore(moc.ShardConfig{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	// Seeded payloads, not trained ones: shard placement follows chunk
	// hashes, and those must not move with floating-point codegen.
	cs, err := cas.Open(ss, cas.Options{ChunkSize: 1 << 10, Writer: "w"})
	if err != nil {
		t.Fatal(err)
	}
	mods := map[string][]byte{}
	for i := 0; i < 8; i++ {
		mods[fmt.Sprintf("m%d", i)] = make([]byte, 4<<10)
		rng.New(uint64(i)).Fill(mods[fmt.Sprintf("m%d", i)])
	}
	if _, err := cs.WriteRound(0, mods); err != nil {
		t.Fatal(err)
	}
	return dir, sharded
}

// mocckpt runs the command line and returns its exit code and output.
func mocckpt(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// leaseLeft is the time-to-expiry in the jobs table's lease column.
var leaseLeft = regexp.MustCompile(`held -?[0-9hms.]+`)

// TestMocckptGolden pins the output of every subcommand whose output
// is a function of the store alone. The cases run in order: gc mutates
// the fixture, and the second gc must find nothing.
func TestMocckptGolden(t *testing.T) {
	dir, sharded := fixture(t)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"list", []string{"-dir", dir, "list"}},
		{"list_writer", []string{"-dir", dir, "-writer", "ft-law", "list"}},
		{"inspect", []string{"-dir", dir, "inspect"}},
		{"jobs", []string{"-dir", dir, "jobs"}},
		{"verify", []string{"-dir", dir, "verify"}},
		{"gc", []string{"-dir", dir, "gc"}},
		{"gc_again", []string{"-dir", dir, "compact"}},
		{"shards", []string{"-dir", sharded, "-shards", "2", "shards"}},
		{"chaos", []string{"chaos", "-preempt", "110:30:2", "-straggle", "0:30:60", "-partition", "1:70:100"}},
	} {
		code, out, errOut := mocckpt(tc.args...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", tc.name, code, errOut)
		}
		out = leaseLeft.ReplaceAllString(out, "held <left>")
		path := filepath.Join("testdata", tc.name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if out != string(want) {
			t.Errorf("%s: output differs from %s (rerun with -update to accept)\ngot:\n%s\nwant:\n%s", tc.name, path, out, want)
		}
	}
}

// TestMocckptTimedSubcommands runs the subcommands whose output carries
// timings against a near-free remote, checking the exit code and that
// every line label is printed.
func TestMocckptTimedSubcommands(t *testing.T) {
	dir, _ := fixture(t)
	fast := []string{"-dir", dir, "-latency-ms", "0.01"}
	trace := filepath.Join(t.TempDir(), "trace.json")
	for _, tc := range []struct {
		args   []string
		labels []string
	}{
		{append(fast, "stats"), []string{"store:", "chunking:", "dedup:", "per-writer breakdown", "unique chunk sizes:",
			"cold replay:", "warm replay:", "cache:", "remote totals:", "health:", "persist probe", "pipeline:"}},
		{append(fast, "-readers", "2", "-restores", "2", "restore"), []string{"restore probe:", "time-to-restored-model:",
			"L1 (per-reader):", "L2 (shared):", "backend:"}},
		{append(fast, "top"), []string{"metric", "cas.", "remote.", "cache."}},
		{append(fast, "-watch", "-interval", "0.01", "-ticks", "2", "top"), []string{"--- sample 1", "--- sample 2"}},
		{[]string{"trace", "-rounds", "2", "-o", trace}, []string{"trace probe:", "coverage", "wrote " + trace}},
	} {
		code, out, errOut := mocckpt(tc.args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, code, errOut)
		}
		for _, l := range tc.labels {
			if !strings.Contains(out, l) {
				t.Errorf("%v: no %q in output:\n%s", tc.args, l, out)
			}
		}
	}
}

func TestMocckptUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-dir", "x", "frobnicate"},
		{"list"},
		{"-dir", "x", "top", "-watch"},
		{"chaos"},
		{"chaos", "-preempt", "1:2"},
		{"trace", "-bogus"},
	} {
		if code, _, _ := mocckpt(args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// docCommand matches a mocckpt command in the docs: a code-block line,
// or an inline code span that starts with a flag.
var docCommand = regexp.MustCompile("(?m)^\\s*mocckpt .*$|`mocckpt -[^`]*`")

// TestMocckptDocCommands runs every mocckpt command README.md and
// EXPERIMENTS.md show against the fixture, so a documented command line
// that cannot run fails here. Placeholders become fixture paths, and
// the remote model is made near-free so the run stays short.
func TestMocckptDocCommands(t *testing.T) {
	dir, sharded := fixture(t)
	out := t.TempDir()
	n := 0
	for _, doc := range []string{"../../README.md", "../../EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docCommand.FindAllString(string(text), -1) {
			line, _, _ := strings.Cut(strings.Trim(strings.TrimSpace(m), "`"), " #")
			target := dir
			if strings.Contains(line, "-shards N") {
				target = sharded
			}
			line = strings.NewReplacer("/ckpt ", target+" ", "<path>", target, "<root>", target,
				"<ckpt-dir>", target, "<ckpt-root>", target, "-shards N", "-shards 2",
				"trace.json", filepath.Join(out, "trace.json"), "spans.jsonl", filepath.Join(out, "spans.jsonl"),
				" ...", "").Replace(line)
			args := strings.Fields(line)[1:]
			switch args[0] {
			case "-dir":
				args = append([]string{"-latency-ms", "0.01", "-interval", "0.01"}, args...)
			case "trace": // a later -o overrides; without one the default lands in the package directory
				args = append([]string{"trace", "-o", filepath.Join(out, "trace.json")}, args[1:]...)
			}
			if code, _, errOut := mocckpt(args...); code != 0 {
				t.Errorf("%s: %q exits %d: %s", doc, m, code, errOut)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no mocckpt commands found in the docs")
	}
}
