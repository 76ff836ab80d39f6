package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sud/internal/attack"
	"sud/internal/hw"
	"sud/internal/netperf"
	"sud/internal/sim"
)

func TestModuleRootFindsGoMod(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(root, "repo") && root == "" {
		t.Fatalf("root = %q", root)
	}
	if _, err := ModuleRoot("/"); err == nil {
		t.Fatal("found go.mod above filesystem root")
	}
}

func TestFig5CountsComponents(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	comps, err := RunFig5(root)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for _, c := range comps {
		byName[c.Name] = c.LoC
	}
	if byName["Safe PCI device access module"] == 0 {
		t.Fatal("pciaccess counted as zero lines")
	}
	if byName["USB host proxy driver"] != 0 {
		t.Fatal("USB host proxy should be zero lines (it has no proxy)")
	}
	if byName["SUD-UML runtime"] < byName["Ethernet proxy driver"] {
		t.Fatal("runtime should dominate a proxy driver, as in the paper")
	}
	out := FormatFig5(comps)
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "2800") {
		t.Fatalf("format output:\n%s", out)
	}
	// Every trusted proxy package is counted, and counted once.
	rows := map[string]int{}
	for _, c := range comps {
		for _, d := range c.Dirs {
			rows[d]++
		}
	}
	ents, err := os.ReadDir(filepath.Join(root, "internal", "proxy"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if d := "internal/proxy/" + e.Name(); e.IsDir() && rows[d] != 1 {
			t.Errorf("%s is in %d Figure 5 rows, want 1", d, rows[d])
		}
	}
}

func TestFig9Structure(t *testing.T) {
	entries, err := RunFig9(hw.DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Use)
		if e.End <= e.Start {
			t.Fatalf("degenerate range %+v", e)
		}
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{
		"TX ring descriptor", "RX ring descriptor",
		"TX buffers", "RX buffers", "Implicit MSI mapping",
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %q in %v", want, names)
		}
	}
	// First mapping starts at the paper's IOVA base.
	if entries[0].Start != 0x42430000 {
		t.Fatalf("first mapping at %#x, want 0x42430000", entries[0].Start)
	}
	out := FormatFig9(entries)
	if !strings.Contains(out, "0xfee00000") {
		t.Fatalf("format missing MSI row:\n%s", out)
	}
}

func TestFig9NoMSIRowOnAMD(t *testing.T) {
	p := hw.DefaultPlatform()
	p.IOMMU.Vendor = 1 // iommu.VendorAMD
	entries, err := RunFig9(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Use == "Implicit MSI mapping" {
			t.Fatal("AMD walk shows an implicit MSI mapping")
		}
	}
}

func TestFig8RunsAndFormats(t *testing.T) {
	if testing.Short() {
		t.Skip("full fig8 is slow")
	}
	opt := netperf.Options{
		Warmup: 5 * sim.Millisecond, Window: 20 * sim.Millisecond,
		MinWindows: 3, MaxWindows: 3, HalfWidthFrac: 1,
	}
	rows, err := RunFig8(hw.DefaultPlatform(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("fig8 has %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Paper.Value == 0 {
			t.Fatalf("row %s/%v missing paper reference", r.Benchmark, r.Mode)
		}
		if r.Value <= 0 {
			t.Fatalf("row %s/%v measured nothing", r.Benchmark, r.Mode)
		}
	}
	out := FormatFig8(rows)
	for _, want := range []string{"TCP_STREAM", "UDP_RR", "941", "9590"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestSecuritySummaryFormat(t *testing.T) {
	outcomes := []attack.Outcome{
		{Attack: "a", Config: "c1", Compromised: true, Detail: "d"},
		{Attack: "a", Config: "c2", Compromised: false, Detail: "d"},
		{Attack: "b", Config: "c1", Compromised: true, Detail: "d"},
	}
	sum := SecuritySummary(outcomes)
	if !strings.Contains(sum, "c1") || !strings.Contains(sum, "0/2") || !strings.Contains(sum, "1/1") {
		t.Fatalf("summary:\n%s", sum)
	}
	full := FormatSecurity(outcomes)
	if !strings.Contains(full, "COMPROMISED") || !strings.Contains(full, "CONFINED") {
		t.Fatalf("matrix:\n%s", full)
	}
}
