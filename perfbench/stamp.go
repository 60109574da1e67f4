package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"sfcp/internal/calib"
)

// stamp records where and how a result was produced. compare refuses to
// set results from different hosts side by side.
type stamp struct {
	Host       calib.HostFingerprint `json:"host"`
	NProc      int                   `json:"nproc"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	GoVersion  string                `json:"go_version"`
	// Commit is the checkout's git HEAD, or "unknown" outside a git
	// repository; SourceSHA256 identifies the Go sources either way.
	Commit       string   `json:"commit"`
	SourceSHA256 string   `json:"source_sha256"`
	Seed         uint64   `json:"seed"`
	SfcpdFlags   []string `json:"server_flags"`
}

func newStamp(root string, seed uint64, flags []string) stamp {
	return stamp{
		Host:         calib.Fingerprint(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(root),
		SourceSHA256: sourceDigest(root),
		Seed:         seed,
		SfcpdFlags:   flags,
	}
}

// gitCommit reads HEAD when root is itself a git work tree (git is not
// asked to search the directories above it).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "--git-dir", filepath.Join(root, ".git"), "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the path and content of every .go, go.mod and
// BENCHMARK.json file under root, outside .git and .bench_build.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && (e.Name() == ".git" || e.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if e.IsDir() || !(strings.HasSuffix(path, ".go") || e.Name() == "go.mod" || e.Name() == "BENCHMARK.json") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// loadResults reads result files: path is one file or a directory of
// them (span files are skipped).
func loadResults(path string) ([]result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
	}
	var out []result
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no results in %s", path)
	}
	return out, nil
}

// sameHost reports whether every result was produced on one host
// fingerprint, and describes the first difference.
func sameHost(rs []result) error {
	for _, r := range rs[1:] {
		a, b := rs[0].Stamp, r.Stamp
		if a.Host != b.Host || a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS {
			return fmt.Errorf("host fingerprints differ: %+v (nproc %d) vs %+v (nproc %d)",
				a.Host, a.NProc, b.Host, b.NProc)
		}
	}
	return nil
}

// compare prints, per workload and metric, the median of the old and the
// new results, the change, and each side's quartile spread. It refuses
// results whose host fingerprints differ.
func compare(w io.Writer, oldPath, newPath string) error {
	olds, err := loadResults(oldPath)
	if err != nil {
		return err
	}
	news, err := loadResults(newPath)
	if err != nil {
		return err
	}
	if err := sameHost(append(slices.Clone(olds), news...)); err != nil {
		return fmt.Errorf("refusing to compare: %w", err)
	}
	type key struct {
		workload string
		trace    bool
	}
	group := func(rs []result) map[key][]result {
		g := map[key][]result{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			g[k] = append(g[k], r)
		}
		return g
	}
	og, ng := group(olds), group(news)
	found := false
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			k := key{name, trace}
			o, n := og[k], ng[k]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			found = true
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			fmt.Fprintf(w, "%s (trace=%v): %d old runs, %d new runs\n", name, trace, len(o), len(n))
			fmt.Fprintf(w, "  %-40s %14s %14s %9s %8s %8s\n", "metric", "old median", "new median", "change", "old IQR", "new IQR")
			for _, d := range defs {
				ov, nv := column(o, d.Name), column(n, d.Name)
				om, nm := median(ov), median(nv)
				fmt.Fprintf(w, "  %-40s %14.4f %14.4f %+8.1f%% %7.1f%% %7.1f%%  %s\n",
					d.Name, om, nm, 100*ratio(nm-om, om), 100*relSpread(ov), 100*relSpread(nv), d.Unit)
			}
		}
	}
	if !found {
		return errors.New("no workload has results on both sides")
	}
	return nil
}

func column(rs []result, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name]
	}
	return out
}
