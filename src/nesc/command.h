/**
 * @file
 * NeSC device ABI: command/completion descriptors and the register map.
 *
 * Drivers talk to a function (PF or VF) through a per-function 4 KiB
 * register page (paper §V, "Control registers") and a pair of host-
 * memory rings: a command ring (driver -> device) and a completion
 * ring (device -> driver). Commands address the virtual device in
 * vLBAs; the device translates, executes, and posts a completion, then
 * raises the function's MSI vector.
 */
#ifndef NESC_CTRL_COMMAND_H
#define NESC_CTRL_COMMAND_H

#include <cstdint>

#include "pcie/host_memory.h"

namespace nesc::ctrl {

/** Device block granularity: NeSC operates on 1 KiB blocks (paper §IV.C). */
inline constexpr std::uint32_t kDeviceBlockSize = 1024;

/** Command opcodes. */
enum class Opcode : std::uint8_t {
    kRead = 1,
    kWrite = 2,
    kFlush = 3,
};

/** Completion status codes. */
enum class CompletionStatus : std::uint32_t {
    kOk = 0,
    kOutOfRange = 1,   ///< vLBA beyond the virtual device size
    kWriteFailed = 2,  ///< hypervisor could not allocate storage
    kInternalError = 3,
    kReadMediaError = 4,  ///< storage media failed the read
    kWriteMediaError = 5, ///< storage media failed the write
    kAborted = 6,         ///< aborted by watchdog or function reset
    kMalformed = 7,       ///< descriptor failed validation at fetch
    kDmaFault = 8,        ///< buffer DMA refused (window violation)
    /**
     * Payload failed its end-to-end checksum and the device's recovery
     * ladder (bounded re-read, then replica repair when a set is
     * attached) could not produce a verified copy. Distinct from
     * kReadMediaError: the media answered, but with corrupt data.
     */
    kChecksumError = 9,
};

/**
 * Statuses a driver may retry: media errors can be transient (the
 * device cannot tell a transient media hiccup from a grown defect, so
 * it reports both the same way and leaves the retry policy to the
 * host), and kAborted means the command was torn down, not that it
 * failed — a resubmission after recovery is well-defined. kMalformed
 * and kDmaFault are NOT retryable: resubmitting the same rejected
 * descriptor can only fail the same way (and feeds the quarantine
 * fault counter).
 */
constexpr bool
completion_status_retryable(CompletionStatus status)
{
    return status == CompletionStatus::kReadMediaError ||
           status == CompletionStatus::kWriteMediaError ||
           status == CompletionStatus::kAborted ||
           status == CompletionStatus::kChecksumError;
}

/** Command ring record (driver -> device). */
struct CommandRecord {
    std::uint64_t vlba;        ///< first device block of the request
    std::uint32_t nblocks;     ///< block count (driver splits large I/O)
    std::uint8_t opcode;       ///< Opcode
    std::uint8_t pad[3];
    pcie::HostAddr host_buffer; ///< data buffer in host memory
    std::uint64_t tag;          ///< echoed in the completion
};
static_assert(sizeof(CommandRecord) == 32);

/** Completion ring record (device -> driver). */
struct CompletionRecord {
    std::uint64_t tag;
    std::uint32_t status; ///< CompletionStatus
    std::uint32_t pad;
};
static_assert(sizeof(CompletionRecord) == 16);

/**
 * Register offsets within a function's BAR page. The paper names
 * ExtentTreeRoot, MissAddress/MissSize and RewalkTree explicitly
 * (§V); ring setup and doorbell registers are the standard DMA-ring
 * plumbing it mentions and omits. Who may read or write each register,
 * and which optional block it needs, is stated once, in
 * nesc/register_table.h.
 */
namespace reg {
inline constexpr std::uint64_t kExtentTreeRoot = 0x00;
inline constexpr std::uint64_t kMissAddress = 0x08;
inline constexpr std::uint64_t kMissSize = 0x10;
inline constexpr std::uint64_t kRewalkTree = 0x14;
inline constexpr std::uint64_t kCmdRingBase = 0x18;
inline constexpr std::uint64_t kCompRingBase = 0x20;
inline constexpr std::uint64_t kDoorbell = 0x28;
inline constexpr std::uint64_t kDeviceSize = 0x30; // in device blocks
inline constexpr std::uint64_t kInterruptVector = 0x38;
/** Read-only per-function statistics (device-side accounting). */
inline constexpr std::uint64_t kStatBlocksRead = 0x40;
inline constexpr std::uint64_t kStatBlocksWritten = 0x48;
inline constexpr std::uint64_t kStatFaults = 0x50;
/** QoS service weight of this function (set through PF mgmt). */
inline constexpr std::uint64_t kQosWeight = 0x58;
/**
 * Command watchdog: commands outstanding longer than this many
 * nanoseconds complete with kAborted. 0 (reset value) disables it.
 */
inline constexpr std::uint64_t kWatchdogNs = 0x60;
/**
 * Implemented width of the kWatchdogNs field: writes are truncated to
 * this many bits (max ~275 s). Bounding the field keeps a hostile
 * guest from arming a deadline centuries in the future, which would
 * drag the device's shared timebase along with it.
 */
inline constexpr std::uint32_t kWatchdogNsBits = 38;
/**
 * Function-level reset: any non-zero write aborts the function's
 * queued, stalled, and in-flight operations, clears its rings, fault
 * state, and driver-owned registers. Hypervisor-owned configuration
 * (extent root, device size, QoS weight, active state) is preserved.
 */
inline constexpr std::uint64_t kFnReset = 0x68;
/** Pending fault kind (FaultKind); 0 when the function is running. */
inline constexpr std::uint64_t kFaultKind = 0x70;
inline constexpr std::uint64_t kStatAbortedOps = 0x78;
inline constexpr std::uint64_t kStatFnResets = 0x7c;

// PF-only management block (paper: VFs are created/deleted and their
// storage subsets controlled through the PF interface).
inline constexpr std::uint64_t kMgmtVfId = 0x80;
inline constexpr std::uint64_t kMgmtExtentRoot = 0x88;
inline constexpr std::uint64_t kMgmtDeviceSize = 0x90; // in device blocks
inline constexpr std::uint64_t kMgmtCommand = 0x98;
inline constexpr std::uint64_t kMgmtStatus = 0x9c;
inline constexpr std::uint64_t kMgmtQosWeight = 0xa0;

// Translation fast-path block (PF-only). The paper's prototype is an
// 8-entry fully-associative BTLB with no node cache and no miss
// coalescing; these registers scale the translation unit beyond it.
/**
 * BTLB geometry: bits[15:0] sets, bits[31:16] ways, bits[39:32]
 * range-granule shift (log2 blocks). sets <= 1 selects the paper's
 * fully-associative FIFO mode with `ways` entries; sets >= 2 selects
 * the set-associative pseudo-LRU organisation (sets and ways are
 * normalised down to powers of two). Writing reconfigures and flushes
 * the cache.
 */
inline constexpr std::uint64_t kBtlbGeometry = 0xa8;
inline constexpr std::uint64_t kStatBtlbHits = 0xb0;
inline constexpr std::uint64_t kStatBtlbMisses = 0xb8;
/**
 * Extent-node-cache SRAM budget in bytes; 0 (reset value) disables
 * the cache. Writing rebudgets and evicts down to the new size.
 */
inline constexpr std::uint64_t kNodeCacheBytes = 0xc0;
inline constexpr std::uint64_t kStatNodeCacheHits = 0xc8;
inline constexpr std::uint64_t kStatNodeCacheMisses = 0xd0;
/**
 * Walk-miss coalescing (MSHR) control: 0 disables; a non-zero value
 * enables it with that coalescing window in blocks (concurrent misses
 * of the same function within the window of an in-flight walk attach
 * to it instead of launching their own).
 */
inline constexpr std::uint64_t kWalkCoalesce = 0xd8;
inline constexpr std::uint64_t kStatWalkCoalesced = 0xe0;
inline constexpr std::uint64_t kStatWalkReplays = 0xe8;

// Adversarial-guest containment block. Per-function quarantine state
// is read-only on the function's own page (the hypervisor reads a
// VF's page directly); the windows and thresholds that drive it are
// programmed through PF-only registers.
/** 1 while the function is quarantined, else 0. */
inline constexpr std::uint64_t kQuarantineStatus = 0xf0;
/** QuarantineCause of the current quarantine (0 when running). */
inline constexpr std::uint64_t kQuarantineCause = 0xf8;
inline constexpr std::uint64_t kStatMalformed = 0x100;
inline constexpr std::uint64_t kStatDmaViolations = 0x108;
/** VF writes to PF-only registers, rejected and counted. */
inline constexpr std::uint64_t kStatRegViolations = 0x110;
/**
 * Staged DMA-window range for MgmtCommand::kAddDmaWindow (PF-only,
 * like the mgmt block): base host address and byte length.
 */
inline constexpr std::uint64_t kDmaWindowBase = 0x118;
inline constexpr std::uint64_t kDmaWindowSize = 0x120;
/**
 * Quarantine trigger: this many validation faults (malformed
 * descriptors, ring-header corruption) within QuarantineWindowNs
 * quarantines the function. 0 disables storm-triggered quarantine;
 * DMA-window violations always quarantine immediately.
 */
inline constexpr std::uint64_t kQuarantineThreshold = 0x128;
inline constexpr std::uint64_t kQuarantineWindowNs = 0x130;

// Telemetry block (PF-only): a self-describing per-function counter
// directory, mirroring how real SR-IOV controllers expose per-queue
// statistics for software polling. The PF writes kTelemetrySelect with
// a (function, counter index) pair, then reads the counter's value and
// packed-ASCII name back. Reads with an invalid function or index
// return all-ones (the PCIe master-abort idiom), never fault.
/** bits[15:0] function id, bits[31:16] counter index. */
inline constexpr std::uint64_t kTelemetrySelect = 0x138;
/** 64-bit value of the selected counter. */
inline constexpr std::uint64_t kTelemetryValue = 0x140;
/** Number of counters per function in the directory. */
inline constexpr std::uint64_t kTelemetryCount = 0x148;
/**
 * Selected counter's name as packed ASCII, 8 chars per register
 * (little-endian byte order, NUL-padded, 24 chars max).
 */
inline constexpr std::uint64_t kTelemetryName0 = 0x150;
inline constexpr std::uint64_t kTelemetryName1 = 0x158;
inline constexpr std::uint64_t kTelemetryName2 = 0x160;
// Replication block (PF-only). Present only when a repl::ReplicaSet
// is attached behind the controller; with no set attached every
// register in the block reads all-ones (master-abort idiom) and
// writes are dropped. Replication is transparent to VFs: their media
// traffic is mirrored/routed underneath the translation layer.
/** Backends that must be durable before a replicated write acks. */
inline constexpr std::uint64_t kReplQuorum = 0x178;
/** Read-attempt deadline in ns before failover to the next backend. */
inline constexpr std::uint64_t kReplReadTimeoutNs = 0x180;
/**
 * Backend selector for the per-backend registers below and for the
 * kReplDemote/kReplResync management commands.
 */
inline constexpr std::uint64_t kReplBackendSelect = 0x188;
/** BackendState of the selected backend (0 healthy/1 down/2 resync). */
inline constexpr std::uint64_t kReplBackendState = 0x190;
/** Dirty (unreplicated) blocks owed to the selected backend. */
inline constexpr std::uint64_t kReplBackendDirty = 0x198;
/** Ack/read timeouts charged to the selected backend. */
inline constexpr std::uint64_t kReplBackendTimeouts = 0x1a0;
/** Media/functional errors charged to the selected backend. */
inline constexpr std::uint64_t kReplBackendErrors = 0x1a8;
/** Blocks copied into the selected backend by background resync. */
inline constexpr std::uint64_t kReplResyncDone = 0x1b0;
/** Read failovers taken across the set (timeout or error driven). */
inline constexpr std::uint64_t kReplFailovers = 0x1b8;

// Queue-pair admin block (VF-writable). Every function owns queue
// pair 0 implicitly — its SQ/CQ are the legacy kCmdRingBase /
// kCompRingBase / kDoorbell / kInterruptVector registers, which alias
// queue pair 0's state bit-for-bit (single-ring paper mode is the
// reset state). Additional pairs, up to the PF-programmed kQpQuota,
// are created through this block: select a qid, stage the ring bases
// and MSI vector, then write kQpCommand. Reads of the staged
// registers return the live pair's values when the selected qid
// exists and all-ones (master-abort idiom) when it does not, so a
// driver can probe which qids are live without faulting.
/** Queue-pair selector for the registers below. */
inline constexpr std::uint64_t kQpSelect = 0x200;
/** Staged SQ ring base for kQpCreate; live pair's base on read. */
inline constexpr std::uint64_t kQpSqBase = 0x208;
/** Staged CQ ring base for kQpCreate; live pair's base on read. */
inline constexpr std::uint64_t kQpCqBase = 0x210;
/** Staged completion MSI vector; 0 selects the per-(fn,qid) default. */
inline constexpr std::uint64_t kQpIrqVector = 0x218;
/** QpCommand (create/delete the selected pair); result in kQpStatus. */
inline constexpr std::uint64_t kQpCommand = 0x220;
/** MgmtStatus-style result of the last kQpCommand. */
inline constexpr std::uint64_t kQpStatus = 0x228;
/** Number of live queue pairs (including pair 0). */
inline constexpr std::uint64_t kQpCount = 0x230;
/** PF-programmed queue-pair quota (total pairs, including pair 0). */
inline constexpr std::uint64_t kQpQuota = 0x238;

// Hierarchical-arbitration block (PF-only). Reset values reproduce
// the paper's flat weighted round robin exactly.
/** ArbMode: 0 = legacy WRR (paper §V.A, reset), 1 = DWRR. */
inline constexpr std::uint64_t kArbMode = 0x240;
/**
 * DWRR quantum in blocks: each turn a function's deficit grows by
 * quantum * qos_weight. Writes of 0 clamp to 1.
 */
inline constexpr std::uint64_t kArbQuantum = 0x248;
/** Staged queue-pair quota for MgmtCommand::kSetQpQuota. */
inline constexpr std::uint64_t kMgmtQpQuota = 0x250;
/** Staged token-bucket rate for kSetRateLimit; 0 = unlimited. */
inline constexpr std::uint64_t kMgmtRateBytesPerSec = 0x258;
/** Staged token-bucket burst capacity for kSetRateLimit, in bytes. */
inline constexpr std::uint64_t kMgmtRateBurstBytes = 0x260;

// Integrity block (PF-only unless noted). Present only when an
// IntegrityMap (per-pLBA CRC32C sidecar) is attached behind the
// controller; with no map attached every register in the block reads
// all-ones (master-abort idiom) and writes are dropped. Checksums are
// transparent to VFs: verification/recording happen per media block
// underneath translation, and the only guest-visible artifact is the
// kChecksumError completion when the recovery ladder fails.
/** bit0: verify-on-read + record-on-write enable (1 at attach). */
inline constexpr std::uint64_t kIntegrityCtrl = 0x268;
/** Bounded same-media re-reads attempted on a mismatch. */
inline constexpr std::uint64_t kIntegrityRereadLimit = 0x270;
/** Checksum mismatches detected (foreground reads + scrub). */
inline constexpr std::uint64_t kIntegrityMismatches = 0x278;
/** Blocks healed (re-read recoveries + replica repairs). */
inline constexpr std::uint64_t kIntegrityRepairs = 0x280;

// Background scrubber (PF-only, part of the integrity block): a
// rate-limited scan verifying cold data against the sidecar and
// repairing from replicas when a set is attached. Started/aborted via
// MgmtCommand::kScrubStart / kScrubAbort.
/** Blocks verified per scrub batch (reset 64; writes of 0 clamp). */
inline constexpr std::uint64_t kScrubBatch = 0x288;
/** Pause between scrub batches in ns (reset 100 us). */
inline constexpr std::uint64_t kScrubIntervalNs = 0x290;
/** 1 while a scrub pass is running, else 0. */
inline constexpr std::uint64_t kScrubStatus = 0x298;
/** Blocks scanned by the current (or last completed) pass. */
inline constexpr std::uint64_t kScrubProgress = 0x2a0;
/** Uncorrectable blocks the scrubber could not repair. */
inline constexpr std::uint64_t kScrubErrors = 0x2a8;
/**
 * Per-function kChecksumError completions (readable on the function's
 * own page, like kQuarantineStatus — a guest can see its own damage).
 */
inline constexpr std::uint64_t kStatChecksumErrors = 0x2b0;

// Observability block (PF-only): the always-on telemetry plane —
// windowed per-function latency/IOPS accounting with SLO watch, the
// flight recorder with postmortem capture, and the time-series
// sampler. Everything here is off at reset (windows, recorder and
// sampler all disabled) so the plane costs nothing until the PF
// turns it on.
/**
 * Accounting window length in ns; writing non-zero starts windowed
 * per-function latency accounting and SLO evaluation at each
 * rotation, 0 (reset) stops it. Pacing changes do not reset
 * accumulated windows.
 */
inline constexpr std::uint64_t kObsWindowNs = 0x2b8;
/** Staged end-to-end p99 ceiling in ns for kSetSlo; 0 unwatches. */
inline constexpr std::uint64_t kSloMaxP99Ns = 0x2c0;
/** Staged error-rate ceiling in errored ops per million for kSetSlo. */
inline constexpr std::uint64_t kSloMaxErrorPpm = 0x2c8;
/**
 * Selector for the window registers below: fn in [15:0], stage in
 * [19:16] (0 end-to-end, 1 queue wait, 2 translate, 3 transfer).
 * The registers read the last *closed* window — a stable snapshot
 * that only changes at rotation. All read all-ones while windowed
 * accounting is off or when the selection is out of range.
 */
inline constexpr std::uint64_t kSloSelect = 0x2d0;
inline constexpr std::uint64_t kSloP50 = 0x2d8;
inline constexpr std::uint64_t kSloP99 = 0x2e0;
inline constexpr std::uint64_t kSloP999 = 0x2e8;
/** Ops completed in the selected fn's closed window (all stages). */
inline constexpr std::uint64_t kSloWindowOps = 0x2f0;
/** Errored ops in the selected fn's closed window. */
inline constexpr std::uint64_t kSloWindowErrors = 0x2f8;
/** Start timestamp of the selected fn's closed window. */
inline constexpr std::uint64_t kSloWindowStart = 0x300;
/** Breaches currently retained in the directory (drop-oldest). */
inline constexpr std::uint64_t kSloBreachCount = 0x308;
/** Breach-directory index selector; out of range reads all-ones. */
inline constexpr std::uint64_t kSloBreachSelect = 0x310;
/** Selected breach: fn in [15:0], metric in [23:16] (0 p99, 1 err). */
inline constexpr std::uint64_t kSloBreachInfo = 0x318;
inline constexpr std::uint64_t kSloBreachObserved = 0x320;
inline constexpr std::uint64_t kSloBreachThreshold = 0x328;
/** Start timestamp of the window the selected breach closed over. */
inline constexpr std::uint64_t kSloBreachWindow = 0x330;
/** Bit 0 enables the flight recorder (re-enable resets the rings). */
inline constexpr std::uint64_t kFlightCtrl = 0x338;
/** Per-function ring depth applied at the next enable; 0 keeps it. */
inline constexpr std::uint64_t kFlightDepth = 0x340;
/** Postmortems currently retained (drop-oldest buffer). */
inline constexpr std::uint64_t kPostmortemCount = 0x348;
/**
 * Selector for the postmortem registers below: postmortem index in
 * [15:0], event index within it in [31:16]. Out-of-range selections
 * read all-ones.
 */
inline constexpr std::uint64_t kPostmortemSelect = 0x350;
/**
 * Selected postmortem: fn in [15:0], reason in [23:16] (0 fault,
 * 1 quarantine, 2 checksum error, 3 replica demotion), detail in
 * [31:24] (reason-specific: fault kind, backend id), event count in
 * [63:32].
 */
inline constexpr std::uint64_t kPostmortemInfo = 0x358;
/** Snapshot timestamp of the selected postmortem. */
inline constexpr std::uint64_t kPostmortemTime = 0x360;
/** Selected event's timestamp. */
inline constexpr std::uint64_t kPostmortemEventTime = 0x368;
/** Selected event's command tag. */
inline constexpr std::uint64_t kPostmortemEventTag = 0x370;
/** Selected event's vLBA. */
inline constexpr std::uint64_t kPostmortemEventVlba = 0x378;
/**
 * Selected event's type in [7:0] (0 doorbell, 1 fetch, 2 complete,
 * 3 fault) and type-specific aux payload in [39:8] (qid, opcode,
 * completion status, cause).
 */
inline constexpr std::uint64_t kPostmortemEventMeta = 0x380;
/**
 * Metrics-sampling interval in ns; non-zero starts the time-series
 * sampler (taking one sample immediately), 0 (reset) stops it.
 */
inline constexpr std::uint64_t kSamplerIntervalNs = 0x388;
/** Samples currently retained in the bounded series. */
inline constexpr std::uint64_t kSamplerCount = 0x390;

/**
 * Per-queue doorbell aperture: queue pair q's doorbell is the 8-byte
 * register at kQpDoorbell0 + 8*q. Pair 0's doorbell is also aliased
 * at the legacy kDoorbell offset. A doorbell write to a qid with no
 * live queue pair is dropped and counted (master-abort semantics for
 * a posted write): it never reaches the fetch engine.
 */
inline constexpr std::uint64_t kQpDoorbell0 = 0x800;
} // namespace reg

/** Queue pairs per function the doorbell aperture can address. */
inline constexpr std::uint32_t kMaxQueuePairs = 16;

/** reg::kQpCommand values. */
enum class QpCommand : std::uint32_t {
    kCreate = 1, ///< create the selected pair from the staged bases
    kDelete = 2, ///< tear down the selected pair (aborts its commands)
};

/** reg::kArbMode values. */
enum class ArbMode : std::uint32_t {
    kLegacyWrr = 0, ///< paper §V.A credit round robin (reset state)
    kDwrr = 1,      ///< deficit WRR: unspent credit banks under
                    ///< backpressure while the function stays backlogged
};

/** Why a function is quarantined (reg::kQuarantineCause). */
enum class QuarantineCause : std::uint8_t {
    kNone = 0,
    kMalformedStorm = 1, ///< validation-fault threshold exceeded
    kDmaViolation = 2,   ///< device DMA outside the function's windows
    kRingCorrupt = 3,    ///< command-ring header failed validation
};

/** Packs a kBtlbGeometry register value. */
constexpr std::uint64_t
encode_btlb_geometry(std::uint32_t sets, std::uint32_t ways,
                     std::uint32_t range_shift)
{
    return (static_cast<std::uint64_t>(sets) & 0xffff) |
           ((static_cast<std::uint64_t>(ways) & 0xffff) << 16) |
           ((static_cast<std::uint64_t>(range_shift) & 0xff) << 32);
}

/** kMgmtCommand values. */
enum class MgmtCommand : std::uint32_t {
    kCreateVf = 1,
    kDeleteVf = 2,
    kFlushBtlb = 3, ///< hypervisor-triggered BTLB flush (dedup etc.)
    /**
     * Allocation failed (storage or quota exhausted): fail the VF's
     * stalled writes with a write-failure completion (Fig. 5b).
     */
    kFailMiss = 4,
    /**
     * Applies kMgmtQosWeight to the VF in kMgmtVfId: the arbiter
     * serves that many blocks per round-robin turn (paper §IV.D,
     * "QoS... by modifying its DMA engine to support different
     * priorities for each VF").
     */
    kSetQosWeight = 5,
    /**
     * Repoints the extent tree of the VF in kMgmtVfId at
     * kMgmtExtentRoot and flushes that VF's BTLB entries. This is the
     * only way to change a live VF's mapping: the per-function
     * ExtentTreeRoot register is read-only outside the PF, so a guest
     * cannot repoint its own tree at a self-crafted mapping.
     */
    kSetExtentRoot = 6,
    /**
     * Grants the VF in kMgmtVfId DMA access to the staged range
     * [kDmaWindowBase, kDmaWindowBase + kDmaWindowSize) and enables
     * window enforcement for it. A confined VF's device-initiated
     * DMA (rings, data buffers, extent-node fetches) must land
     * inside its windows; anything else quarantines the VF.
     */
    kAddDmaWindow = 7,
    /** Drops the VF's windows, returning it to unconfined DMA. */
    kClearDmaWindows = 8,
    /**
     * Releases the VF in kMgmtVfId from quarantine via a
     * function-level reset. This is the only way out: the VF's own
     * FnReset register is ignored while quarantined, so a hostile
     * guest cannot un-quarantine itself.
     */
    kReleaseQuarantine = 9,
    /**
     * Forces demotion of the replication backend selected by
     * kReplBackendSelect (maintenance drain). Fails when no replica
     * set is attached.
     */
    kReplDemote = 10,
    /**
     * Starts (or restarts) background resync of the selected backend,
     * replaying its dirty-extent log from a healthy peer while
     * foreground I/O continues.
     */
    kReplResync = 11,
    /**
     * Applies reg::kMgmtQpQuota to the VF in kMgmtVfId: the total
     * number of queue pairs (including pair 0) the VF may have live.
     * Must be in [1, kMaxQueuePairs]. Lowering the quota below the
     * live count affects future creates only.
     */
    kSetQpQuota = 12,
    /**
     * Applies the staged token-bucket rate limit (kMgmtRateBytesPerSec
     * + kMgmtRateBurstBytes) to the VF in kMgmtVfId. Rate 0 (the
     * reset state) removes the limit.
     */
    kSetRateLimit = 13,
    /**
     * Starts a background scrub pass over the whole pLBA space: a
     * rate-limited scan (kScrubBatch blocks every kScrubIntervalNs)
     * verifying media contents against the integrity sidecar,
     * repairing damage from a verified replica copy when a set is
     * attached, and counting uncorrectable blocks otherwise. Fails
     * when no integrity map is attached or a pass is running.
     */
    kScrubStart = 14,
    /** Aborts the running scrub pass (progress registers keep state). */
    kScrubAbort = 15,
    /**
     * Applies the staged SLO thresholds (reg::kSloMaxP99Ns +
     * kSloMaxErrorPpm) to the VF in kMgmtVfId. Evaluated against
     * each closed accounting window while kObsWindowNs is non-zero;
     * zero thresholds unwatch the corresponding metric.
     */
    kSetSlo = 16,
    /** Clears the retained postmortem buffer. */
    kPostmortemClear = 17,
    /** Clears the SLO breach directory. */
    kSloBreachClear = 18,
};

/** kMgmtStatus values. */
enum class MgmtStatus : std::uint32_t {
    kIdle = 0,
    kOk = 1,
    kError = 2,
};

/**
 * MSI vector assignment: completion vector of (function f, queue q).
 * Queue pair 0's vector equals the legacy completion_vector(fn), so
 * single-queue drivers are unaffected by the multi-queue extension.
 */
constexpr std::uint32_t
queue_vector(std::uint16_t fn, std::uint32_t qid)
{
    return 0x100u + fn + (qid << 16);
}

/** MSI vector assignment: completion vector of function f (queue 0). */
constexpr std::uint32_t
completion_vector(std::uint16_t fn)
{
    return queue_vector(fn, 0);
}

/** MSI vector the PF receives for VF faults (write miss / prune). */
inline constexpr std::uint32_t kFaultVector = 0x10;

} // namespace nesc::ctrl

#endif // NESC_CTRL_COMMAND_H
