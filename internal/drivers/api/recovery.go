package api

// RecoverableDevice is the shadow-recovery surface every supervised
// kernel-side device object exposes — the contract blockdev.Dev and
// netstack.Iface used to duplicate structurally, now shared so the
// supervisor (internal/sudml), the shadow layer's consumers, and the tenant
// plane drive recovery through one interface regardless of device class.
//
// The lifecycle it names is the paper's shadow-driver extension (§2, §5.2):
// a device object survives its driver process. On a death the device core's
// BeginRecovery parks it (that entry point stays class-specific — block
// parking fails nothing while netstack holds TX stopped — so it is not part
// of this contract); the epoch advances so proxies bound to the dead
// incarnation are fenced; the restarted or promoted driver adopts the
// surviving object; and CompleteRecovery replays what the dead incarnation
// swallowed — logged block requests under their original tags, logged TX
// frames through the new driver — returning the replay count.
//
// The Queue* methods are the surgical variants from the per-queue
// confinement plane: exactly one queue's DMA sub-domain was revoked, so
// exactly that queue parks and bumps its own epoch, while siblings — and
// the driver process itself — keep running.
type RecoverableDevice interface {
	// Epoch is the device's driver-incarnation counter; it advances on
	// every device-wide recovery (and on quarantine). Proxies record the
	// epoch they bound at and are rejected once it moves on.
	Epoch() uint64
	// Recovering reports whether the device is between driver incarnations
	// (parked, awaiting adoption and CompleteRecovery).
	Recovering() bool

	// QueueEpoch is queue q's own incarnation counter, advanced by every
	// BeginQueueRecovery.
	QueueEpoch(q int) uint64
	// QueueRecovering reports whether queue q alone is parked by a
	// surgical recovery.
	QueueRecovering(q int) bool
	// BeginQueueRecovery parks exactly queue q: TX/submission holds, the
	// queue epoch advances to fence stale completions. Idempotent; a
	// device-wide recovery subsumes it.
	BeginQueueRecovery(q int)
	// CompleteQueueRecovery releases a surgically parked queue after its
	// sub-domain is re-armed, returning the replayed count. A block device
	// replays the queue's request log; a network interface replays
	// nothing, because the surviving driver still owns the transmits
	// queued to it. It is an error during a device-wide recovery.
	CompleteQueueRecovery(q int) (int, error)

	// CompleteRecovery finishes a device-wide recovery after adoption:
	// bring-up is replayed into the new incarnation, parked work resumes,
	// and the shadow log is re-submitted. It returns the replayed count;
	// on failure the device stays recovering so a further restart can
	// retry.
	CompleteRecovery() (int, error)
}
