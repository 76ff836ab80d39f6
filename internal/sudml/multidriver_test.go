package sudml

import (
	"bytes"
	"testing"

	"sud/internal/devices/e1000"
	"sud/internal/devices/hda"
	"sud/internal/devices/nvme"
	"sud/internal/devices/usb"
	"sud/internal/devices/wifi"
	"sud/internal/drivers/api"
	"sud/internal/drivers/e1000e"
	"sud/internal/drivers/ehci"
	"sud/internal/drivers/iwl"
	"sud/internal/drivers/nvmed"
	"sud/internal/drivers/sndhda"
	"sud/internal/ethlink"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/kernel/netstack"
	"sud/internal/pci"
	"sud/internal/sim"
)

// TestFourDriverProcessesIsolated boots one machine with four devices, each
// driven by its own untrusted process (§2: "SUD runs a separate UML process
// for each device driver"), runs all four classes concurrently, then hangs
// and kills the Ethernet driver and verifies the other three keep working —
// the paper's core isolation claim between drivers.
func TestFourDriverProcessesIsolated(t *testing.T) {
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)

	// Devices.
	nic := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000, dutMAC, e1000.DefaultParams())
	m.AttachDevice(nic)
	link := ethlink.NewGigabit(m.Loop, 300)
	peer := &echoPeer{link: link, loop: m.Loop}
	link.Connect(nic, peer)
	nic.AttachLink(link, 0)

	ap := &wifi.AP{SSID: "lab", BSSID: [6]byte{0xAA, 1, 1, 1, 1, 1}, Channel: 1, Signal: -50}
	air := &wifi.Air{APs: []*wifi.AP{ap}}
	wcard := wifi.New(m.Loop, pci.MakeBDF(1, 1, 0), 0xFEB20000, [6]byte{0, 0x21, 0x6A, 9, 9, 9}, air)
	m.AttachDevice(wcard)

	codec := hda.New(m.Loop, pci.MakeBDF(1, 2, 0), 0xFEB30000)
	m.AttachDevice(codec)

	hc := usb.New(m.Loop, pci.MakeBDF(1, 3, 0), 0xFEB40000)
	m.AttachDevice(hc)
	kbd := usb.NewKeyboard()
	if err := hc.AttachUSB(0, kbd); err != nil {
		t.Fatal(err)
	}

	// One untrusted process per driver, distinct UIDs.
	ethProc, err := Start(k, nic, e1000e.New(), "e1000e", 1001)
	if err != nil {
		t.Fatal(err)
	}
	wifiProc, err := Start(k, wcard, iwl.New(), "iwlagn", 1002)
	if err != nil {
		t.Fatal(err)
	}
	audioProc, err := Start(k, codec, sndhda.New(), "snd-hda", 1003)
	if err != nil {
		t.Fatal(err)
	}
	usbProc, err := Start(k, hc, ehci.New(), "ehci", 1004)
	if err != nil {
		t.Fatal(err)
	}

	// Every process has its own IOMMU domain — no sharing.
	doms := map[interface{}]bool{}
	for _, p := range []*Process{ethProc, wifiProc, audioProc, usbProc} {
		if doms[p.DF.Dom] {
			t.Fatal("two driver processes share an IOMMU domain")
		}
		doms[p.DF.Dom] = true
	}

	// Bring everything up and run all four classes.
	eth, err := k.Net.Iface("eth0")
	if err != nil {
		t.Fatal(err)
	}
	if err := eth.Up(dutIP); err != nil {
		t.Fatal(err)
	}
	wl, err := k.Wifi.Iface("wlan0")
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Up(); err != nil {
		t.Fatal(err)
	}
	pcm, err := k.Audio.PCMDev("hda0")
	if err != nil {
		t.Fatal(err)
	}
	if err := pcm.Prepare(48000, 4800, 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := pcm.WritePeriod(make([]byte, 4800)); err != nil {
			t.Fatal(err)
		}
	}
	pcm.OnPeriod = func() {
		for pcm.QueuedPeriods() < 4 {
			if err := pcm.WritePeriod(make([]byte, 4800)); err != nil {
				return
			}
		}
	}
	if err := pcm.Start(); err != nil {
		t.Fatal(err)
	}

	var echoes int
	if _, err := k.Net.UDPBind(5000, func([]byte, netstack.IP, uint16) { echoes++ }); err != nil {
		t.Fatal(err)
	}
	sendPing := func(ifc *netstack.Iface) {
		_ = k.Net.UDPSendTo(ifc, peerMAC, peerIP, 5000, 7, []byte("ping"))
	}
	if err := wl.Scan(); err != nil {
		t.Fatal(err)
	}
	sendPing(eth)
	m.Loop.RunFor(40 * sim.Millisecond)

	if echoes != 1 {
		t.Fatalf("ethernet echo failed pre-kill: %d", echoes)
	}
	if len(wl.LastScan) != 1 {
		t.Fatal("wifi scan failed pre-kill")
	}

	// Hang, then kill, the Ethernet driver.
	ethProc.Hang()
	if _, err := eth.Ioctl(api.IoctlGetMIIStatus, nil); err == nil {
		t.Fatal("hung eth driver answered ioctl")
	}
	ethProc.Kill()

	// The other three classes keep functioning.
	if err := wl.Associate("lab"); err != nil {
		t.Fatal(err)
	}
	m.Loop.RunFor(10 * sim.Millisecond)
	if !wl.Carrier {
		t.Fatal("wifi association failed after eth driver death")
	}
	periodsBefore := pcm.PeriodsElapsed
	m.Loop.RunFor(100 * sim.Millisecond)
	if pcm.PeriodsElapsed <= periodsBefore {
		t.Fatal("audio stalled after eth driver death")
	}
	if pcm.XRuns != 0 {
		t.Fatalf("audio underruns after eth driver death: %d", pcm.XRuns)
	}
	kbd.PressKey(0x04)
	devsRaw, err := usbProc.Ctl(ehci.CtlEnumerate, nil)
	if err != nil {
		t.Fatal(err)
	}
	devs, err := ehci.ParseDevices(devsRaw)
	if err != nil || len(devs) != 1 {
		t.Fatalf("usb enumeration after eth death: %v %v", devs, err)
	}
	rep, err := usbProc.Ctl(ehci.CtlHIDPoll, []byte{devs[0].Address})
	if err != nil || len(rep) != 8 || rep[2] != 0x04 {
		t.Fatalf("keyboard report after eth death: % x %v", rep, err)
	}

	// The dead NIC's DMA faults; the other devices' DMA still works
	// (audio keeps streaming, proven above).
	if err := nic.DMAWrite(0x42430000, []byte{1}); err == nil {
		t.Fatal("dead driver's device can still DMA")
	}

	// And a restarted Ethernet process restores service.
	if _, err := Start(k, nic, e1000e.New(), "e1000e-2", 1005); err != nil {
		t.Fatal(err)
	}
	eth2, err := k.Net.Iface("eth0")
	if err != nil {
		t.Fatal(err)
	}
	if err := eth2.Up(dutIP); err != nil {
		t.Fatal(err)
	}
	sendPing(eth2)
	m.Loop.RunFor(10 * sim.Millisecond)
	if echoes != 2 {
		t.Fatalf("ethernet echo failed post-restart: %d", echoes)
	}
}

// TestSupervisorRecoversHungDriver exercises the shadow-driver extension:
// the supervised e1000e hangs mid-service; the supervisor detects it via the
// failed ioctl probe, restarts the process, replays the interface state, and
// traffic resumes without administrator action.
func TestSupervisorRecoversHungDriver(t *testing.T) {
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	nic := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000, dutMAC, e1000.DefaultParams())
	m.AttachDevice(nic)
	link := ethlink.NewGigabit(m.Loop, 300)
	peer := &echoPeer{link: link, loop: m.Loop}
	link.Connect(nic, peer)
	nic.AttachLink(link, 0)

	sup, err := Supervise(k, nic, e1000e.New(), "e1000e", "eth0", 1001)
	if err != nil {
		t.Fatal(err)
	}
	ifc, err := k.Net.Iface("eth0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ifc.Up(dutIP); err != nil {
		t.Fatal(err)
	}
	var echoes int
	if _, err := k.Net.UDPBind(5000, func([]byte, netstack.IP, uint16) { echoes++ }); err != nil {
		t.Fatal(err)
	}
	send := func() {
		cur, err := k.Net.Iface("eth0")
		if err != nil {
			return
		}
		_ = k.Net.UDPSendTo(cur, peerMAC, peerIP, 5000, 7, []byte("ping"))
	}
	send()
	m.Loop.RunFor(20 * sim.Millisecond)
	if echoes != 1 {
		t.Fatalf("pre-hang echo failed: %d", echoes)
	}

	// The driver wedges (infinite loop).
	sup.Proc().Hang()
	var gen int
	sup.OnRestart = func(g int) { gen = g }
	m.Loop.RunFor(50 * sim.Millisecond) // two health checks + recovery
	if sup.Restarts != 1 || gen != 1 {
		t.Fatalf("restarts = %d (gen %d), want 1", sup.Restarts, gen)
	}
	// Interface state was replayed; traffic flows again.
	cur, err := k.Net.Iface("eth0")
	if err != nil {
		t.Fatal(err)
	}
	if !cur.IsUp() {
		t.Fatal("interface not re-upped by supervisor")
	}
	send()
	m.Loop.RunFor(20 * sim.Millisecond)
	if echoes != 2 {
		t.Fatalf("post-recovery echo failed: %d", echoes)
	}
	// The supervisor stays quiet on a healthy driver.
	m.Loop.RunFor(100 * sim.Millisecond)
	if sup.Restarts != 1 {
		t.Fatalf("spurious restarts: %d", sup.Restarts)
	}
	sup.Stop()
}

// TestRespawnAdoptsRenamedInterface: the supervised NIC registered as eth1
// because another NIC's unsupervised driver held eth0. Killing that driver
// frees eth0, so the supervised driver's respawn — which requests "eth0"
// again — misses the recovering interface by name. It must still adopt eth1
// by hardware address rather than register a fresh eth0 and leave eth1
// bound to its dead proxy.
func TestRespawnAdoptsRenamedInterface(t *testing.T) {
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	nicA := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000, dutMAC, e1000.DefaultParams())
	m.AttachDevice(nicA)
	macB := [6]byte{0x00, 0x1B, 0x21, 0x11, 0x22, 0x34}
	nicB := e1000.New(m.Loop, pci.MakeBDF(1, 1, 0), 0xFEB20000, macB, e1000.DefaultParams())
	m.AttachDevice(nicB)
	link := ethlink.NewGigabit(m.Loop, 300)
	link.Connect(nicB, &echoPeer{link: link, loop: m.Loop})
	nicB.AttachLink(link, 0)

	procA, err := Start(k, nicA, e1000e.New(), "e1000e-a", 1001)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := Supervise(k, nicB, e1000e.New(), "e1000e-b", "eth1", 1002)
	if err != nil {
		t.Fatal(err)
	}
	ifc, err := k.Net.Iface("eth1")
	if err != nil {
		t.Fatal(err)
	}
	if ifc.MAC != netstack.MAC(macB) {
		t.Fatalf("eth1 has MAC %v, want the supervised NIC's", ifc.MAC)
	}
	if err := ifc.Up(dutIP); err != nil {
		t.Fatal(err)
	}
	var echoes int
	if _, err := k.Net.UDPBind(5000, func([]byte, netstack.IP, uint16) { echoes++ }); err != nil {
		t.Fatal(err)
	}

	procA.Kill()
	if _, err := k.Net.Iface("eth0"); err == nil {
		t.Fatal("eth0 survived its unsupervised driver's kill")
	}
	sup.Proc().Kill()
	m.Loop.RunFor(50 * sim.Millisecond)
	if sup.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", sup.Restarts)
	}
	if _, err := k.Net.Iface("eth0"); err == nil {
		t.Fatal("the respawn registered a fresh eth0 instead of adopting eth1")
	}
	cur, err := k.Net.Iface("eth1")
	if err != nil {
		t.Fatal(err)
	}
	if cur != ifc || cur.Recovering() || !cur.IsUp() {
		t.Fatalf("eth1 not adopted: same=%v recovering=%v up=%v", cur == ifc, cur.Recovering(), cur.IsUp())
	}
	if err := k.Net.UDPSendTo(cur, peerMAC, peerIP, 5000, 7, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	m.Loop.RunFor(20 * sim.Millisecond)
	if echoes != 1 {
		t.Fatalf("echoes through the adopted eth1 = %d, want 1", echoes)
	}
	sup.Stop()
}

// TestRespawnAdoptsRenamedBlockDev is the block twin of
// TestRespawnAdoptsRenamedInterface: the supervised controller registered as
// nvme1 because another controller's unsupervised driver held nvme0.
// Killing that driver frees nvme0, and nvmed always asks for "nvme0", so
// the supervised driver's respawn must be handed the name its supervisor
// recovers. Otherwise it registers a fresh nvme0, nvme1 stays recovering
// and the supervisor restarts over and over.
func TestRespawnAdoptsRenamedBlockDev(t *testing.T) {
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	ctrlA := nvme.New(m.Loop, pci.MakeBDF(2, 0, 0), 0xFEC00000, nvme.MultiQueueParams(1))
	m.AttachDevice(ctrlA)
	ctrlB := nvme.New(m.Loop, pci.MakeBDF(2, 1, 0), 0xFEC40000, nvme.MultiQueueParams(2))
	m.AttachDevice(ctrlB)
	seeded := bytes.Repeat([]byte{0x5A}, nvme.BlockSize)
	ctrlB.SeedMedia(9, seeded)

	procA, err := StartQ(k, ctrlA, nvmed.NewQ(1), "nvmed-a", 1200, 1)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := SuperviseBlock(k, ctrlB, nvmed.NewQ(2), "nvmed-b", "nvme1", 1201, 2)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := k.Blk.Dev("nvme1")
	if err != nil {
		t.Fatal(err)
	}
	if sup.BlkShadow == nil || dev.Shadow() != sup.BlkShadow {
		t.Fatal("the supervisor does not shadow nvme1")
	}
	if err := dev.Up(); err != nil {
		t.Fatal(err)
	}

	procA.Kill()
	if _, err := k.Blk.Dev("nvme0"); err == nil {
		t.Fatal("nvme0 survived its unsupervised driver's kill")
	}
	sup.Proc().Kill()
	m.Loop.RunFor(100 * sim.Millisecond)
	if sup.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", sup.Restarts)
	}
	if _, err := k.Blk.Dev("nvme0"); err == nil {
		t.Fatal("the respawn registered a fresh nvme0 instead of adopting nvme1")
	}
	cur, err := k.Blk.Dev("nvme1")
	if err != nil {
		t.Fatal(err)
	}
	if cur != dev || cur.Recovering() || !cur.IsUp() {
		t.Fatalf("nvme1 not adopted: same=%v recovering=%v up=%v", cur == dev, cur.Recovering(), cur.IsUp())
	}
	var got []byte
	if err := cur.ReadAt(9, func(data []byte, err error) {
		if err != nil {
			t.Errorf("read through the adopted nvme1: %v", err)
		}
		got = bytes.Clone(data)
	}); err != nil {
		t.Fatal(err)
	}
	m.Loop.RunFor(sim.Millisecond)
	if !bytes.Equal(got, seeded) {
		t.Fatal("the read through the adopted nvme1 did not return the seeded block")
	}
	sup.Stop()
}

// TestSupervisorGivesUpOnCrashLoop verifies the crash-loop bound.
func TestSupervisorGivesUpOnCrashLoop(t *testing.T) {
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	nic := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000, dutMAC, e1000.DefaultParams())
	m.AttachDevice(nic)
	link := ethlink.NewGigabit(m.Loop, 300)
	link.Connect(nic, &echoPeer{link: link, loop: m.Loop})
	nic.AttachLink(link, 0)

	sup, err := Supervise(k, nic, e1000e.New(), "e1000e", "eth0", 1001)
	if err != nil {
		t.Fatal(err)
	}
	sup.MaxRestarts = 2
	ifc, err := k.Net.Iface("eth0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ifc.Up(dutIP); err != nil {
		t.Fatal(err)
	}
	// Hang every generation as soon as it comes up.
	sup.OnRestart = func(int) { sup.Proc().Hang() }
	sup.Proc().Hang()
	m.Loop.RunFor(500 * sim.Millisecond)
	if sup.Restarts != 2 {
		t.Fatalf("restarts = %d, want MaxRestarts=2 then give up", sup.Restarts)
	}
}

// TestHealthCheckAllocatesNothing pins the supervisor's periodic probe on an
// idle, healthy NIC: rescheduling the check, the sync upcall carrying the
// MII-status ioctl and the e1000e driver's answer, which it writes into its
// own 1-byte reply buffer, allocate nothing.
func TestHealthCheckAllocatesNothing(t *testing.T) {
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	nic := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000, dutMAC, e1000.DefaultParams())
	m.AttachDevice(nic)
	sup, err := Supervise(k, nic, e1000e.New(), "e1000e", "eth0", 1001)
	if err != nil {
		t.Fatal(err)
	}
	ifc, err := k.Net.Iface("eth0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ifc.Up(dutIP); err != nil {
		t.Fatal(err)
	}
	m.Loop.RunFor(4 * sup.CheckEvery)
	syncs := sup.Proc().Chan.Stats().SyncUpcalls
	if a := testing.AllocsPerRun(20, func() { m.Loop.RunFor(sup.CheckEvery) }); a != 0 {
		t.Fatalf("a health check allocates %v times, want 0", a)
	}
	if n := sup.Proc().Chan.Stats().SyncUpcalls - syncs; n != 21 {
		t.Fatalf("%d health ioctls over 21 check periods, want 21", n)
	}
}
