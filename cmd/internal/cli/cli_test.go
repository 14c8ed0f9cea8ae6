package cli

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// golden is the command surface's regression table: what each command
// prints, and writes, for a fixed invocation. The hashes were captured
// from the commands as they were before they moved into this package
// (PR 22's parent commit) and hold for any change that claims the outputs
// did not move — except the stdout of quicbench h3-pcap and h3-down and of
// starlink-bench quick, re-captured when "Loss event durations (…): n=0"
// stopped printing p50=-2562047h47m16.854775808s for p50=—, and the stdout
// of starlink-bench quick once more when the fleet and traffic tables
// stopped printing 0.0 for a quantile of no samples (now —, with a
// footnote), and errant-export profiles (stdout and p.json) when a
// speedtest whose first round of server-selection pings was lost started
// pinging again: its one test used to fail, fitting starlink-fitted to
// down~1 up~1.0, and now succeeds (down~126 up~12.6). "{dir}" in args is the row's temporary directory; the same
// substitution runs backwards on stdout, which names the files it wrote.
var golden = []struct {
	name, command, args string
	// sharded rows run twice, with -workers 1 and -workers 4 appended, and
	// both runs must produce the one hash.
	sharded bool
	slow    bool // skipped under -short
	stdout  string
	files   map[string]string
}{
	{name: "smoke", command: "pingmon", args: "-days 1 -interval 2h",
		stdout: "c14fc956933c74b05946a3c22d470547be7cad71b2c16b11423592ac5c134237"},
	{name: "reps", command: "pingmon", args: "-days 1 -interval 2h -reps 3", sharded: true,
		stdout: "d7b90d1fbb43f215a8623f8553d4ffb63b1a2116e5251a5d41901b623d112c43"},
	{name: "scenario", command: "pingmon", args: "-days 1 -interval 6h -scenario -seed 7",
		stdout: "285b97b12c37eb71751127277a6ff3016c71d6414e41846218955e83f8ebdbb7"},
	{name: "h3-pcap", command: "quicbench", args: "-mode h3 -n 1 -size 5 -pcap {dir}/first.pcap",
		stdout: "68ecb0810aabc86b1f48ce519a65f02d76af35263296d397e3c6f99ec2db6aa9",
		files:  map[string]string{"first.pcap": "16e06be99fd15d0b52dcd248d4b57cbfa27937efe22059a2343f1f9677b0e690"}},
	{name: "h3-down", command: "quicbench", args: "-mode h3 -n 2 -size 2", sharded: true,
		stdout: "81b1e3a4b0a0fe9fe21ebaca7cc22d9434da47b685de640b5c980cdd83e84096"},
	{name: "h3-up", command: "quicbench", args: "-mode h3 -n 1 -size 2 -dir up",
		stdout: "ed7b18adbc6b6781abb828de5ccf0a293a40b7f0219feb3c5596a1e70312f40a"},
	{name: "messages-up", command: "quicbench", args: "-mode messages -n 1 -dur 30s -dir up",
		stdout: "8083f2079cd17fe5ad0d5b589c5a69d83ec21fe5235ee3872ece3b8d68f964a4"},
	{name: "messages-down", command: "quicbench", args: "-mode messages -n 3 -dur 20s", sharded: true,
		stdout: "bdb4697ae44840988fe79439b3b8b8d814d28aacef8de5557d63200a0677c469"},
	{name: "modern", command: "quicbench", args: "-mode messages -n 1 -dur 20s -transport modern",
		stdout: "3dbafb3c17900bd7943dc0142c6b6366b6ec1c67eed379a3982266ebd2d47757"},
	{name: "smoke", command: "speedtest", args: "-count 1 -gap 1s",
		stdout: "88eb297054abcf413d9fee6ec5829d7312862d51ae4056dda712fe12d5ab1377"},
	{name: "conns", command: "speedtest", args: "-count 1 -gap 1s -conns 2 -tech satcom",
		stdout: "c4defc1c9b260b7d15671cbe7a30df0b5e9b2cbaa8dde40d02908e86c6538f9d"},
	{name: "sharded", command: "speedtest", args: "-count 3 -gap 1s -tech satcom", sharded: true,
		stdout: "cf6ed760f8b73d23f51f5a7445cdeaaa9aef3f575f015a25a8f12cdc95d4cf03"},
	{name: "verbose", command: "webbench", args: "-visits 2 -tech wired -v",
		stdout: "4823cfe2f67dc3844e7cdbe065a83904027490dc6d7b43bd5fcab684c871ca93"},
	{name: "sharded", command: "webbench", args: "-visits 12", sharded: true,
		stdout: "d3497ea5151e2cadd1666424216bd2f7fa4308c42d0347f5edde2444fe233996"},
	{name: "toggles", command: "webbench", args: "-visits 2 -tech satcom -transport bbr,pacing",
		stdout: "03b9e8e6f3dc53f3f89ca4c68a0a82098042e0d27e5843d8d2a51d5ece59fd99"},
	{name: "starlink", command: "tracebox", args: "",
		stdout: "c55b5ce45a7e2b7905cbd315b5156b90b6775b31ace728d78c577cbac89b3738"},
	{name: "wired", command: "tracebox", args: "-tech wired",
		stdout: "c36ea2089dde676aa94b11a3a4f116e2f2b7f33b2f90c905996c27244ce5cafd"},
	{name: "satcom", command: "tracebox", args: "-tech satcom -seed 3",
		stdout: "053b60010b67205c52e768e4941060b3b46fe2943decadd1a3b213bf0d6f2a0b"},
	{name: "profiles", command: "errant-export", args: "-tests 1 -o {dir}/p.json", sharded: true,
		stdout: "ffa9adebb78f498d09e44573eabf5982f4a597c0747ddccccd0337fe1f161c8e",
		files:  map[string]string{"p.json": "ee4f042696a8a467294728296cb1b3db5b4fb21f1d0da5c32c9356f1fa0cdd80"}},
	// One worker count only: TestRunVariantMatrix (cmd/starlink-bench)
	// already holds the quick report, its trace and its metrics byte-equal
	// between -workers 1 and 8, so one hashed run pins them all, and a
	// second would add four seconds to every `go test ./...`.
	{name: "quick", command: "starlink-bench", slow: true,
		args:   "-quick -fleet.terminals 200 -workers 4 -trace {dir}/t.bin -metrics.json {dir}/m.json",
		stdout: "14ecd4d5511fd9a24e8dc65e3f85f952699e3dfe1203ea6d839a1a619625a2c9",
		files: map[string]string{
			"t.bin":  "367c7b555ba4dcda7a3b3f290a89d9418703509e03919eba33d240f7d46894bb",
			"m.json": "b5fc34c7e9fff385f1d7e442cdfc676209e2a9bb5d8befcb661160649bfb20c9"}},
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestGolden(t *testing.T) {
	for _, row := range golden {
		variants := []string{""}
		if row.sharded {
			variants = []string{" -workers 1", " -workers 4"}
		}
		for _, v := range variants {
			t.Run(row.command+" "+row.name+strings.ReplaceAll(v, "-workers ", "w"), func(t *testing.T) {
				if row.slow && testing.Short() {
					t.Skip("a quick report takes ~4s")
				}
				t.Parallel()
				dir := t.TempDir()
				args := strings.Fields(strings.ReplaceAll(row.args+v, "{dir}", dir))
				var out, errOut strings.Builder
				if err := Run(row.command, args, &out, &errOut); err != nil {
					t.Fatalf("%s %v: %v\nstderr:\n%s", row.command, args, err, errOut.String())
				}
				// An empty sample rendered as a duration: NaN seconds become
				// math.MinInt64 ns, "-2562047h47m16.854775808s".
				if strings.Contains(out.String(), "-2562047h") || strings.Contains(out.String(), "NaN") {
					t.Errorf("stdout renders an empty sample as a number:\n%s", out.String())
				}
				if got := sha([]byte(strings.ReplaceAll(out.String(), dir, "{dir}"))); got != row.stdout {
					t.Errorf("stdout hashes to %s, want %s:\n%s", got, row.stdout, out.String())
				}
				for name, want := range row.files {
					blob, err := os.ReadFile(filepath.Join(dir, name))
					if err != nil {
						t.Errorf("%s not written: %v", name, err)
					} else if got := sha(blob); got != want {
						t.Errorf("%s (%d bytes) hashes to %s, want %s", name, len(blob), got, want)
					}
				}
			})
		}
	}
}

// TestBadInput holds every command to the same contract for an invocation
// it cannot run: an error, at once — before any campaign starts — and
// nothing on stdout. cli.Main turns the error into exit code 2.
// (starlink-bench's own flags and unwritable outputs are
// cmd/starlink-bench's TestRunRejectsBadFlags.)
func TestBadInput(t *testing.T) {
	rows := []struct{ command, args string }{
		// Absurd values that used to run: a hang, an upload labelled
		// "sideways", percentiles of an empty sample, a capture never written.
		{"pingmon", "-days 1 -interval 0"},
		{"pingmon", "-days 1 -interval -5m"},
		{"quicbench", "-dir sideways"},
		{"quicbench", "-size -1"},
		{"quicbench", "-size 0"},
		{"quicbench", "-mode messages -dur 0"},
		{"quicbench", "-mode messages -dur -1s"},
		{"quicbench", "-mode messages -pcap x.pcap"},
		{"speedtest", "-gap -1s"},
		// Unknown names.
		{"quicbench", "-mode ftp"},
		{"speedtest", "-tech dialup"},
		{"webbench", "-tech dialup"},
		{"tracebox", "-tech dialup"},
		{"quicbench", "-transport warp"},
		{"speedtest", "-transport warp"},
		{"webbench", "-transport bbr,warp"},
		{"starlink-bench", "-quick -transport warp"},
		// Counts below one.
		{"pingmon", "-days 0"},
		{"pingmon", "-reps 0"},
		{"quicbench", "-n 0"},
		{"speedtest", "-count 0"},
		{"speedtest", "-conns 0"},
		{"webbench", "-visits 0"},
		{"errant-export", "-tests 0"},
		// A negative worker count is not another spelling of the default.
		{"pingmon", "-reps 2 -workers -1"},
		{"quicbench", "-workers -1"},
		{"speedtest", "-workers -1"},
		{"webbench", "-workers -1"},
		{"errant-export", "-workers -1"},
		{"starlink-bench", "-quick -workers -1"},
		// Flags that do not exist; tracebox shards nothing, so no -workers.
		{"pingmon", "-bogus"},
		{"quicbench", "-bogus"},
		{"speedtest", "-bogus"},
		{"webbench", "-bogus"},
		{"errant-export", "-bogus"},
		{"tracebox", "-workers 2"},
		{"no-such-command", ""},
	}
	for _, row := range rows {
		t.Run(row.command+" "+row.args, func(t *testing.T) {
			var out, errOut strings.Builder
			start := time.Now()
			err := Run(row.command, strings.Fields(row.args), &out, &errOut)
			if err == nil {
				t.Error("accepted")
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("took %v to refuse", d)
			}
			if out.Len() != 0 || strings.Contains(errOut.String(), "running") {
				t.Errorf("got as far as the campaigns before refusing:\n%s%s", errOut.String(), out.String())
			}
		})
	}
}

// Every command lists the flags it listed before the binder existed: none
// added, none renamed, the shared ones where they were.
func TestFlagSets(t *testing.T) {
	want := map[string]string{
		"errant-export":  "-o -seed -tests -workers",
		"pingmon":        "-days -interval -reps -scenario -seed -workers",
		"quicbench":      "-dir -dur -mode -n -pcap -seed -size -transport -workers",
		"speedtest":      "-conns -count -gap -seed -tech -transport -workers",
		"starlink-bench": "-cpuprofile -fleet.terminals -memprofile -metrics.json -quick -scale -scenario.workers -seed -trace -transport -workers",
		"tracebox":       "-seed -tech",
		"webbench":       "-seed -tech -transport -v -visits -workers",
	}
	if len(want) != len(commands) {
		t.Errorf("%d commands registered, %d expected", len(commands), len(want))
	}
	for name, flags := range want {
		var out, usage strings.Builder
		if err := Run(name, []string{"-h"}, &out, &usage); err == nil {
			t.Errorf("%s -h: no error", name)
		}
		var got []string
		for _, line := range strings.Split(usage.String(), "\n") {
			if f := strings.Fields(line); strings.HasPrefix(line, "  -") && len(f) > 0 {
				got = append(got, f[0])
			}
		}
		if g := strings.Join(got, " "); g != flags {
			t.Errorf("%s -h lists %s, want %s", name, g, flags)
		}
	}
}
