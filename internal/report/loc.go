// Package report regenerates the paper's tables and figures: the Figure 5
// lines-of-code inventory, the Figure 8 netperf table, the Figure 9 IO
// virtual memory map, and the §5.2 security matrix. The cmd/sudbench and
// cmd/sudattack binaries print them.
package report

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Fig5Component maps one paper Figure 5 row to this repository's packages.
type Fig5Component struct {
	Name     string
	Dirs     []string // module-relative package directories
	PaperLoC int      // the paper's reported count
	LoC      int      // measured in this repository
}

// Fig5Components returns the Figure 5 rows (counts unfilled).
func Fig5Components() []Fig5Component {
	return []Fig5Component{
		{Name: "Safe PCI device access module", Dirs: []string{"internal/proxy/pciaccess"}, PaperLoC: 2800},
		{Name: "Ethernet proxy driver", Dirs: []string{"internal/proxy/ethproxy"}, PaperLoC: 300},
		{Name: "Wireless proxy driver", Dirs: []string{"internal/proxy/wifiproxy"}, PaperLoC: 600},
		{Name: "Audio card proxy driver", Dirs: []string{"internal/proxy/audioproxy"}, PaperLoC: 550},
		{Name: "USB host proxy driver", Dirs: []string{"internal/proxy/usbproxy"}, PaperLoC: 0},
		// The framing codecs, guard helpers and per-queue core the proxy
		// classes link; counted so code moved between a proxy and this
		// shared core reads as a move, not a deletion. Paper column 0:
		// its proxies carried their own.
		{Name: "Shared proxy framing and guards", Dirs: []string{"internal/proxy/protocol", "internal/proxy/guard", "internal/proxy/qcore"}, PaperLoC: 0},
		// The block class is beyond the paper (its prototype had no
		// storage drivers); the paper column is 0 by construction.
		{Name: "Block proxy driver", Dirs: []string{"internal/proxy/blkproxy"}, PaperLoC: 0},
		{Name: "Block core (kernel side)", Dirs: []string{"internal/kernel/blockdev"}, PaperLoC: 0},
		// Shadow-driver recovery is the restart extension the paper
		// sketches (§2, §5.2) but did not build; paper column 0.
		{Name: "Shadow recovery layer", Dirs: []string{"internal/kernel/shadow"}, PaperLoC: 0},
		{Name: "SUD-UML runtime", Dirs: []string{"internal/sudml", "internal/uchan"}, PaperLoC: 5000},
	}
}

// ModuleRoot locates the repository root by walking up from dir looking for
// go.mod.
func ModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("report: go.mod not found above %s", dir)
		}
		d = parent
	}
}

// CountLoC counts non-blank lines of non-test Go source under dir.
func CountLoC(dir string) (int, error) {
	total := 0
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) != "" {
				total++
			}
		}
		return sc.Err()
	})
	return total, err
}

// RunFig5 measures every component from the module root.
func RunFig5(root string) ([]Fig5Component, error) {
	comps := Fig5Components()
	for i := range comps {
		for _, d := range comps[i].Dirs {
			full := filepath.Join(root, filepath.FromSlash(d))
			if _, err := os.Stat(full); os.IsNotExist(err) {
				continue
			}
			n, err := CountLoC(full)
			if err != nil {
				return nil, err
			}
			comps[i].LoC += n
		}
	}
	return comps, nil
}

// FormatFig5 renders the table with the paper's numbers alongside.
func FormatFig5(comps []Fig5Component) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: Lines of code per SUD component (this repo vs paper)\n")
	fmt.Fprintf(&b, "%-34s %10s %10s\n", "Feature", "This repo", "Paper")
	for _, c := range comps {
		fmt.Fprintf(&b, "%-34s %10d %10d\n", c.Name, c.LoC, c.PaperLoC)
	}
	return b.String()
}
