package attack

import (
	"fmt"

	"sud/internal/devices/e1000"
	"sud/internal/drivers/api"
	"sud/internal/drivers/e1000e"
	"sud/internal/ethlink"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/kernel/netstack"
	"sud/internal/pci"
	"sud/internal/sim"
	"sud/internal/sudml"
	"sud/internal/uchan"
)

// ringFloodQueues is the fan-out of the multi-queue channel under attack.
const ringFloodQueues = 4

// RingFlood is the multi-queue liveness attack (§3.1.1 generalised to N
// rings): one queue's service thread wedges while the kernel keeps offering
// it traffic. Under SUD the hung ring must fill and shed load with a bounded
// error — the kernel thread never blocks — while sibling queues, the shared
// urgent lane and the synchronous control ring keep working. A trusted
// in-kernel driver has no such boundary: its queues are serviced by kernel
// threads, so one wedged queue wedges every caller that enters the driver.
func RingFlood(cfg Config) (Outcome, error) {
	if cfg.Mode == InKernel {
		// The baseline by construction: driver code runs in the calling
		// kernel thread; there is no channel to overflow and no error to
		// return, only a thread that never comes back.
		return Outcome{
			Attack:      "uchan ring flood",
			Config:      cfg.Name,
			Compromised: true,
			Detail:      "trusted driver: a wedged queue blocks kernel callers indefinitely",
		}, nil
	}

	m := hw.NewMachine(cfg.Platform)
	k := kernel.New(m)
	nic := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000,
		[6]byte{2, 0, 0, 0, 0, 1}, e1000.MultiQueueParams(ringFloodQueues))
	m.AttachDevice(nic)
	link := ethlink.NewGigabit(m.Loop, 300)
	peer := &wirePeer{loop: m.Loop, link: link}
	link.Connect(nic, peer)
	nic.AttachLink(link, 0)

	proc, err := sudml.StartQ(k, nic, e1000e.NewQ(ringFloodQueues), "e1000e", 1337, ringFloodQueues)
	if err != nil {
		return Outcome{}, err
	}
	ifc, err := k.Net.Iface("eth0")
	if err != nil {
		return Outcome{}, err
	}
	if err := ifc.Up(netstack.IP{10, 9, 0, 1}); err != nil {
		return Outcome{}, err
	}
	m.Loop.RunFor(sim.Millisecond)

	// Queue 1's service thread wedges; the kernel floods its ring.
	const victim = 1
	proc.HangQueue(victim)
	overflowed := false
	for i := 0; i < 2*uchan.RingSlots; i++ {
		if err := proc.Chan.ASend(victim, uchan.Msg{Op: 0xDEAD}); err == uchan.ErrRingFull {
			overflowed = true
			break
		}
	}

	// The synchronous control ring must stay interruptible-but-live.
	_, ioctlErr := ifc.Ioctl(api.IoctlGetMIIStatus, nil)

	// A flow steered to a live sibling queue must still reach the wire.
	captured := len(peer.captured)
	payload := make([]byte, 64)
	for sport := uint16(53000); sport < 53008; sport++ {
		// Only ports whose flow steering avoids the wedged queue.
		if netstack.TxQueueForPorts(sport, 9, ringFloodQueues) == victim {
			continue
		}
		_ = k.Net.UDPSendTo(ifc, netstack.MAC{9, 9, 9, 9, 9, 9},
			netstack.IP{10, 9, 0, 2}, sport, 9, payload)
	}
	m.Loop.RunFor(5 * sim.Millisecond)
	siblingDelivered := len(peer.captured) - captured

	o := Outcome{Attack: "uchan ring flood", Config: cfg.Name}
	switch {
	case !overflowed:
		o.Compromised = true
		o.Detail = "hung queue accepted unbounded traffic (kernel memory pinned)"
	case ioctlErr != nil:
		o.Compromised = true
		o.Detail = fmt.Sprintf("control ring blocked behind hung queue: %v", ioctlErr)
	case siblingDelivered == 0:
		o.Compromised = true
		o.Detail = "sibling queues starved by hung queue"
	default:
		o.Detail = fmt.Sprintf("ring shed load after %d slots; ioctl ok; %d sibling frames delivered; %d drops",
			uchan.RingSlots, siblingDelivered, proc.Chan.QueueStats(victim).DroppedFull)
	}
	return o, nil
}
