package sim

// Cost model.
//
// Every virtual-time charge in the simulation comes from a named constant in
// this file, so the whole calibration is auditable in one place. The target
// machine is the paper's device-under-test: a Thinkpad X301 with a 1.4 GHz
// dual-core CPU driving an Intel e1000e Gigabit NIC (§5.1). Constants marked
// "paper" are stated in the paper; the rest are calibrated so the Figure 8
// *shape* (who wins, by what factor, where the overhead shows up) reproduces,
// and carry a rationale. bench/perf/README.md describes the benchmark that
// measures these charges end to end and per layer.
const (
	// Cores is the number of CPU cores in the modelled machine (X301 is
	// dual-core). CPU utilisation is reported against Cores × elapsed.
	Cores = 2

	// CostSyscall is the user→kernel→user trap cost for a lightweight
	// system call (read of a ready fd, doorbell write). ~420 cycles at
	// 1.4 GHz.
	CostSyscall Duration = 300

	// CostContextSwitch is a voluntary switch between two runnable
	// processes (register state + address-space switch + scheduler).
	CostContextSwitch Duration = 1500

	// CostProcessWakeup is the latency and CPU cost of waking a process
	// blocked in select/poll. Paper §5.1: "waking up the sleeping process
	// can take as long as 4µs in Linux", and this is why UDP_RR shows a
	// 2x CPU overhead under SUD.
	CostProcessWakeup Duration = 4000

	// CostInterruptEntry is the CPU cost of taking an interrupt: vector
	// dispatch, register save/restore, EOI.
	CostInterruptEntry Duration = 800

	// CostMMIORead is an uncached read from a device BAR (a PCIe round
	// trip; reads are non-posted and stall the CPU).
	CostMMIORead Duration = 250

	// CostMMIOWrite is a posted write to a device BAR.
	CostMMIOWrite Duration = 150

	// CostIOPort is a legacy x86 in/out instruction (slower than MMIO).
	CostIOPort Duration = 400

	// CostPCIConfig is one PCI configuration space dword access. Under
	// SUD this goes through the safe-access system call (§3.2.1), which
	// adds CostSyscall on top.
	CostPCIConfig Duration = 1000

	// CostCopyPerByte is a cache-warm memcpy on the 1.4 GHz core
	// (~3 GB/s).
	CostCopyPerByte float64 = 0.33

	// CostChecksumPerByte is the Internet checksum over payload. Paper
	// §3.1.2: SUD's guard copy (against TOCTOU on shared buffers) is
	// fused with checksum verification "at which point the data is
	// already being brought into the CPU's data cache", so the fused
	// checksum+copy costs CostChecksumCopyPerByte, not the sum.
	CostChecksumPerByte     float64 = 0.45
	CostChecksumCopyPerByte float64 = 0.50

	// CostIOMMUWalk is a two-level IO page table walk on an IOTLB miss,
	// charged to the DMA transaction's latency (not CPU).
	CostIOMMUWalk Duration = 250

	// CostIOTLBInvalidate is a single IOTLB invalidation. Paper §3.1.2
	// found invalidating IOMMU TLB entries "prohibitively expensive on
	// current hardware"; the read-only-page-table alternative to the
	// guard copy is benchmarked as an ablation.
	CostIOTLBInvalidate Duration = 2000

	// CostPageFlipRevoke is clearing one present PTE in the IO page table
	// (a single two-level walk plus the entry write) when the kernel takes
	// page-granularity ownership of a shared buffer page. The IOTLB
	// shootdown that makes the revocation globally visible is charged
	// separately (CostIOTLBShootdown) and amortised over a batch.
	CostPageFlipRevoke Duration = 300

	// CostIOTLBShootdown is one invalidation command covering every page a
	// batch revoked — the batch-amortised form of CostIOTLBInvalidate. The
	// paper found *per-buffer* invalidation prohibitive (§3.1.2); one
	// shootdown per ~16-page batch is what makes the page-flip guard pay.
	CostIOTLBShootdown Duration = 2000

	// CostPageRecycleMap is re-installing the PTE when a flipped page is
	// returned to the driver on the recycle ring (walk + entry write; no
	// invalidation needed — the entry goes from absent to present).
	CostPageRecycleMap Duration = 120

	// CostIRTEUpdate is rewriting an interrupt remapping table entry and
	// flushing the interrupt entry cache. Paper §3.2.2: "changing an
	// interrupt remapping table is more expensive than using MSI
	// masking", so SUD masks first and remaps only on storms.
	CostIRTEUpdate Duration = 3000

	// CostMSIMask is masking/unmasking MSI via the device's PCI config
	// MSI capability (one config write through the safe-access module).
	CostMSIMask Duration = 1200

	// CostDMASetup is the fixed PCIe/DMA engine overhead per DMA
	// transaction (TLP header processing, engine scheduling); device
	// time, not CPU time.
	CostDMASetup Duration = 200

	// CostDMAPerByte is the DMA engine's per-byte transfer time
	// (~5 GB/s effective).
	CostDMAPerByte float64 = 0.2

	// CostUchanEnqueue / CostUchanDequeue are one message through the
	// shared-memory ring (§3.1.2): write/read a slot plus head/tail
	// pointer maintenance. No kernel entry in the fast path.
	CostUchanEnqueue Duration = 80
	CostUchanDequeue Duration = 80

	// CostUchanDoorbell is notifying the other side when its ring was
	// empty (a write to the uchan file descriptor, i.e. a syscall).
	CostUchanDoorbell Duration = CostSyscall

	// CostUMLCall is SUD-UML's per-call bookkeeping when translating
	// between the Linux driver API and the uchan protocol (marshalling,
	// dispatch table, thread-pool handoff checks). §4.2.
	CostUMLCall Duration = 150

	// CostWorkerDispatch is handing an upcall from the UML idle thread to
	// a pooled worker thread, for callbacks that may block (§4.2).
	CostWorkerDispatch Duration = 700

	// CostTraceEvent is one span-plane hop record when tracing is enabled:
	// a clock read plus an append to a preallocated per-CPU buffer (~55
	// cycles at 1.4 GHz). Charged to the dedicated "trace" CPU account so
	// enabled-tracing overhead is visible in utilisation; with tracing
	// disabled no site charges it, which is what keeps the Figure 8
	// baselines bit-for-bit.
	CostTraceEvent Duration = 40
)

// Copy returns the CPU cost of copying n bytes.
func Copy(n int) Duration { return Duration(CostCopyPerByte * float64(n)) }

// Checksum returns the CPU cost of checksumming n bytes.
func Checksum(n int) Duration { return Duration(CostChecksumPerByte * float64(n)) }

// ChecksumCopy returns the CPU cost of the fused guard-copy+checksum pass
// SUD uses on untrusted shared buffers (§3.1.2).
func ChecksumCopy(n int) Duration { return Duration(CostChecksumCopyPerByte * float64(n)) }

// DMA returns the device-side time to move n bytes in one transaction.
func DMA(n int) Duration { return CostDMASetup + Duration(CostDMAPerByte*float64(n)) }
