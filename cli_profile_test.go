package passivespread

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIProfilesLeaveStdoutUnchanged: -cpuprofile, -memprofile and
// -trace on fetsim, fetsweep and fetlab write non-empty files and
// announce them on stderr only — stdout stays byte-identical to an
// unprofiled run.
func TestCLIProfilesLeaveStdoutUnchanged(t *testing.T) {
	bin := buildCLITools(t)
	for _, tc := range []struct {
		tool string
		args []string
	}{
		{"fetsim", []string{"-n", "1024", "-seed", "7", "-replicates", "16", "-workers", "2"}},
		{"fetsweep", []string{"-ns", "256,1024", "-replicates", "4", "-seed", "9", "-format", "csv"}},
		{"fetlab", []string{"-run", "E16", "-quick", "-seed", "3"}},
	} {
		run := func(extra ...string) (stdout, stderr []byte) {
			t.Helper()
			cmd := exec.Command(filepath.Join(bin, tc.tool), append(append([]string{}, tc.args...), extra...)...)
			var outBuf, errBuf bytes.Buffer
			cmd.Stdout, cmd.Stderr = &outBuf, &errBuf
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s %v: %v\n%s", tc.tool, extra, err, errBuf.Bytes())
			}
			return outBuf.Bytes(), errBuf.Bytes()
		}
		plain, _ := run()
		dir := t.TempDir()
		cpu, mem, trace := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof"), filepath.Join(dir, "trace.out")
		profiled, stderr := run("-cpuprofile", cpu, "-memprofile", mem, "-trace", trace)
		if !bytes.Equal(plain, profiled) {
			t.Errorf("%s: stdout changed under profiling:\n--- plain\n%s\n--- profiled\n%s", tc.tool, plain, profiled)
		}
		for _, path := range []string{cpu, mem, trace} {
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("%s: profile %s missing or empty (%v)", tc.tool, path, err)
			}
			if !strings.Contains(string(stderr), path) {
				t.Errorf("%s: stderr does not name %s:\n%s", tc.tool, path, stderr)
			}
		}
	}
}
