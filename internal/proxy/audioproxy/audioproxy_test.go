package audioproxy

import (
	"bytes"
	"testing"

	"sud/internal/devices/hda"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/pci"
	"sud/internal/proxy/pciaccess"
	"sud/internal/uchan"
)

type rig struct {
	m *hw.Machine
	k *kernel.Kernel
	c *uchan.Chan
	p *Proxy

	upcalls []uchan.Msg
	reply   func(uchan.Msg) (uchan.Msg, bool)
}

func newRig(t *testing.T) *rig {
	t.Helper()
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	codec := hda.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000)
	m.AttachDevice(codec)
	acct := m.CPU.Account("driver:test")
	df := pciaccess.Open(k, codec, 1001, acct)
	c := uchan.New(m.Loop, k.Acct, acct)
	r := &rig{m: m, k: k, c: c}
	c.DriverHandler = func(msg uchan.Msg) (uchan.Msg, bool) {
		r.upcalls = append(r.upcalls, msg)
		if r.reply != nil {
			return r.reply(msg)
		}
		return uchan.Msg{Seq: msg.Seq}, true
	}
	p, err := New(k.Audio, df, c, "hda0")
	if err != nil {
		t.Fatal(err)
	}
	c.KernelHandler = p.HandleDowncall
	r.p = p
	return r
}

func TestPrepareTriggerPointerUpcalls(t *testing.T) {
	r := newRig(t)
	r.reply = func(m uchan.Msg) (uchan.Msg, bool) {
		rep := uchan.Msg{Seq: m.Seq}
		if m.Op == OpPointer {
			rep.Args[1] = 4800
		}
		return rep, true
	}
	dev := (*proxyDev)(r.p)
	if err := dev.PrepareStream(48000, 4800, 4); err != nil {
		t.Fatal(err)
	}
	if err := dev.Trigger(true); err != nil {
		t.Fatal(err)
	}
	pos, err := dev.Pointer()
	if err != nil || pos != 4800 {
		t.Fatalf("pointer: %d %v", pos, err)
	}
	if len(r.upcalls) != 3 {
		t.Fatalf("upcalls = %d", len(r.upcalls))
	}
	if r.upcalls[0].Args[0] != 48000 || r.upcalls[0].Args[1] != 4800 || r.upcalls[0].Args[2] != 4 {
		t.Fatalf("prepare args %v", r.upcalls[0].Args)
	}
	if err := dev.PrepareStream(48000, MaxPeriodBytes+1, 2); err == nil {
		t.Fatal("giant period accepted")
	}
}

func TestWritePeriodInline(t *testing.T) {
	r := newRig(t)
	dev := (*proxyDev)(r.p)
	samples := bytes.Repeat([]byte{0x42}, 128)
	if err := dev.WritePeriod(3, samples); err != nil {
		t.Fatal(err)
	}
	r.m.Loop.Run()
	if len(r.upcalls) != 1 || r.upcalls[0].Op != OpWritePeriod {
		t.Fatalf("upcalls: %v", r.upcalls)
	}
	if r.upcalls[0].Args[0] != 3 || !bytes.Equal(r.upcalls[0].Data, samples) {
		t.Fatal("period payload wrong")
	}
	// The proxy copied: mutating the caller's slice later is harmless.
	samples[0] = 0xFF
	if r.upcalls[0].Data[0] != 0x42 {
		t.Fatal("inline data aliases the caller's buffer")
	}
}

func TestPeriodAndXRunDowncalls(t *testing.T) {
	r := newRig(t)
	if err := r.p.PCM.Prepare(48000, 16, 2); err == nil {
		// Prepare goes through the proxy (sync upcall); default reply OK.
		_ = r.p.PCM.WritePeriod(make([]byte, 16))
	}
	r.p.HandleDowncall(uchan.Msg{Op: OpPeriodElapsed})
	if r.p.PCM.PeriodsElapsed != 1 || r.p.PeriodDowncalls != 1 {
		t.Fatal("period downcall not forwarded")
	}
	r.p.HandleDowncall(uchan.Msg{Op: OpXRun})
	if r.p.PCM.XRuns == 0 {
		t.Fatal("xrun downcall not forwarded")
	}
	r.p.HandleDowncall(uchan.Msg{Op: 9999})
	if r.p.BadDowncalls != 1 {
		t.Fatal("unknown downcall not counted")
	}
}

func TestHungDriverErrorsPropagate(t *testing.T) {
	r := newRig(t)
	r.c.Hung = true
	dev := (*proxyDev)(r.p)
	if err := dev.PrepareStream(48000, 100, 2); err == nil {
		t.Fatal("prepare to hung driver succeeded")
	}
	if err := dev.Trigger(true); err == nil {
		t.Fatal("trigger to hung driver succeeded")
	}
	if _, err := dev.Pointer(); err == nil {
		t.Fatal("pointer to hung driver succeeded")
	}
}
