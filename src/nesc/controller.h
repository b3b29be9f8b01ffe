/**
 * @file
 * The NeSC self-virtualizing nested storage controller (paper §V).
 *
 * The controller presents one physical function (PF, function 0) and
 * up to max_vfs virtual functions on the PCIe interconnect. Per
 * function it keeps a register page, a command ring and a completion
 * ring; all functions share the multiplexed machinery:
 *
 *   per-function request queues --round-robin--> vLBA queue
 *     --> translation unit (BTLB + block-walk unit, 2 overlapped
 *         walks hiding extent-tree DMA latency)
 *     --> pLBA queue --> data-transfer unit (storage media + DMA)
 *     --> completion ring + MSI
 *
 * PF requests carry pLBAs already and use the out-of-band channel that
 * bypasses translation, so a VF write-miss stall never blocks the
 * hypervisor. VF translation faults (write to an unallocated block, or
 * any access under a pruned subtree) set MissAddress/MissSize, raise
 * the PF fault vector, and stall that VF until the hypervisor writes
 * RewalkTree.
 */
#ifndef NESC_CTRL_CONTROLLER_H
#define NESC_CTRL_CONTROLLER_H

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "extent/layout.h"
#include "extent/types.h"
#include "nesc/arbiter.h"
#include "nesc/btlb.h"
#include "nesc/command.h"
#include "nesc/node_cache.h"
#include "nesc/queue_pair.h"
#include "nesc/register_table.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "pcie/dma_engine.h"
#include "pcie/host_memory.h"
#include "pcie/host_ring.h"
#include "pcie/interrupts.h"
#include "pcie/mmio.h"
#include "sim/arena.h"
#include "sim/simulator.h"
#include "storage/block_device.h"
#include "storage/media.h"
#include "util/flat_map.h"
#include "util/ring_queue.h"
#include "util/stats.h"
#include "util/status.h"

namespace nesc::repl {
class ReplicaSet;
} // namespace nesc::repl

namespace nesc::storage {
class IntegrityMap;
} // namespace nesc::storage

namespace nesc::ctrl {

/** Microarchitectural parameters of the controller. */
struct ControllerConfig {
    /** VF slots; the prototype supports 64 (paper §V). */
    std::uint16_t max_vfs = 64;
    /** BTLB capacity; the prototype caches the last 8 extents. */
    std::uint32_t btlb_entries = 8;
    /**
     * BTLB sets; <= 1 keeps the paper's fully-associative FIFO mode,
     * >= 2 selects the set-associative pseudo-LRU organisation (see
     * btlb.h). Reconfigurable at runtime via reg::kBtlbGeometry.
     */
    std::uint32_t btlb_sets = 0;
    /** log2 of the BTLB set-index granule in blocks. */
    std::uint32_t btlb_range_shift = 6;
    /**
     * Extent-node-cache SRAM budget in bytes; 0 (the paper's
     * prototype) disables it. See node_cache.h.
     */
    std::uint64_t node_cache_bytes = 0;
    /**
     * MSHR-style walk-miss coalescing: concurrent BTLB misses of one
     * function within coalesce_window_blocks of an in-flight walk
     * attach to it instead of launching their own tree walk. Off in
     * the paper's prototype.
     */
    bool walk_coalescing = false;
    std::uint32_t coalesce_window_blocks = 256;
    /** Concurrent block walks (the unit overlaps two, §V.B). */
    std::uint32_t walk_overlap = 2;
    /** Shared vLBA queue depth. */
    std::uint32_t vlba_queue_depth = 16;
    /** Shared pLBA queue depth. */
    std::uint32_t plba_queue_depth = 16;
    /** Data transfers in flight at once. */
    std::uint32_t max_inflight_transfers = 8;
    /** Pipeline cost of a BTLB lookup + queue management, per block. */
    sim::Duration translation_cost = 150;
    /** Parse cost per tree level, on top of the node DMA. */
    sim::Duration node_parse_cost = 150;
    /** Completion record construction cost. */
    sim::Duration completion_cost = 250;
    /** Doorbell-to-fetch scheduling delay. */
    sim::Duration doorbell_latency = 200;
    /**
     * Completion-interrupt coalescing window: after the first pending
     * completion the MSI fires once this much later, batching any
     * completions that arrive in between. 0 = interrupt per
     * completion (prototype behaviour).
     */
    sim::Duration irq_coalesce = 0;
    /**
     * Guest-misbehavior quarantine: this many validation faults
     * (malformed descriptors, corrupted ring headers) within
     * quarantine_window moves the function to quarantine. 0 disables
     * the storm trigger. DMA-window violations quarantine
     * immediately regardless. Runtime-tunable via PF-only registers.
     */
    std::uint32_t quarantine_threshold = 8;
    sim::Duration quarantine_window = 1'000'000; // 1 ms
    /**
     * Largest nblocks a single CommandRecord may carry; bigger values
     * are rejected kMalformed before any per-block state is
     * allocated (a hostile nblocks of ~2^32 would otherwise expand
     * into billions of queued block ops).
     */
    std::uint32_t max_command_blocks = 65536; // 64 MiB per command
    /**
     * Descriptors fetched per fetch event (reg::kFetchBatch); the
     * fetch engine reschedules itself to continue longer drains.
     * 0 = drain the whole ring in one event (paper behaviour).
     */
    std::uint32_t fetch_batch = 0;
    /**
     * Coalesce a function's completion CQ writes landing in one
     * completion_cost window into a single flush event raising one
     * MSI (reg::kCompletionBatch). Off = one CQ write + MSI per
     * completion (paper behaviour).
     */
    bool completion_batch = false;
};

/** Translation fault kinds (drives the hypervisor's service path). */
enum class FaultKind : std::uint8_t {
    kNone = 0,
    kWriteMiss,   ///< write to an unallocated (lazy) region
    kPruned,      ///< access under a pruned subtree
    kTreeCorrupt, ///< extent-tree node failed a sanity check
};

/** Per-function runtime statistics. */
struct FunctionStats {
    std::uint64_t commands = 0;
    std::uint64_t blocks_read = 0;
    std::uint64_t blocks_written = 0;
    std::uint64_t holes_zero_filled = 0;
    std::uint64_t faults = 0;
    std::uint64_t completions = 0;
    std::uint64_t media_errors = 0; ///< block ops failed by the media
    std::uint64_t aborted_ops = 0;  ///< commands aborted (watchdog/FLR)
    std::uint64_t fn_resets = 0;    ///< function-level resets taken
    std::uint64_t malformed = 0;    ///< descriptors rejected kMalformed
    std::uint64_t ring_corruptions = 0; ///< ring headers failing checks
    std::uint64_t dma_violations = 0;   ///< DMA refused by the windows
    std::uint64_t reg_violations = 0;   ///< PF-only reg writes rejected
    std::uint64_t quarantines = 0;      ///< times quarantined
    std::uint64_t doorbells_ignored = 0; ///< doorbells while quarantined
    /** Doorbells to queue pairs that do not exist (dropped, counted). */
    std::uint64_t dead_doorbells = 0;
    /** Checksum mismatches detected on this function's reads. */
    std::uint64_t checksum_errors = 0;
    /** SLO threshold violations raised over closed windows. */
    std::uint64_t slo_breaches = 0;
};

/** The NeSC controller device model. */
class Controller : public pcie::FunctionMmioDevice {
  public:
    /** Raw node-kind tag as read from a tree node header. */
    using NodeKindTag = std::uint16_t;

    Controller(sim::Simulator &simulator, pcie::HostMemory &host_memory,
               storage::BlockDevice &device,
               pcie::InterruptController &irq,
               const ControllerConfig &config = {});

    /**
     * When the NESC_OBS_DUMP_DIR environment variable names a
     * directory, teardown writes an observability dump there (metrics
     * registry JSON plus the retained flight-recorder postmortems).
     * CI re-runs failing tests with the variable set and uploads the
     * dumps as workflow artifacts; unset (the default), teardown does
     * no I/O.
     */
    ~Controller() override;

    // --- PCIe register interface (FunctionMmioDevice) ----------------

    util::Result<std::uint64_t> mmio_read(pcie::FunctionId fn,
                                          std::uint64_t offset,
                                          unsigned size) override;
    util::Status mmio_write(pcie::FunctionId fn, std::uint64_t offset,
                            std::uint64_t value, unsigned size) override;

    // --- Introspection ------------------------------------------------

    const ControllerConfig &config() const { return config_; }
    Btlb &btlb() { return btlb_; }
    ExtentNodeCache &node_cache() { return node_cache_; }
    pcie::DmaEngine &dma() { return dma_; }
    /**
     * Device-internal metrics. Hot pipeline counters update through
     * interned handles; the registry keeps the CounterGroup-style
     * get()/to_string() surface for tests and benches.
     */
    obs::MetricsRegistry &counters() { return metrics_; }
    const obs::MetricsRegistry &counters() const { return metrics_; }
    storage::BlockDevice &device() { return device_; }

    /**
     * Attaches a replica set behind the data-transfer unit: all media
     * traffic is routed to it instead of the local device — reads with
     * failover, writes mirrored to a quorum. nullptr detaches,
     * restoring the local device bit-exactly. The set must outlive the
     * controller (or be detached first) and its data region must cover
     * the pLBA space the extent trees map. Refused with
     * FAILED_PRECONDITION unless quiescent(): in-flight transfers hold
     * the media they were issued to.
     */
    util::Status attach_replicas(repl::ReplicaSet *replicas);
    repl::ReplicaSet *replicas() { return replicas_; }

    /**
     * Attaches the per-pLBA CRC32C sidecar behind the data-transfer
     * unit: every media write records the payload's checksum, every
     * media read verifies it, and a mismatch runs the recovery ladder
     * (bounded re-reads of the copy that served, then alternate copies,
     * the first verified one repairing the damaged copy in place)
     * before a kChecksumError completion is ever posted. Also clamps
     * the PF-visible device size to the map's data region so a guest
     * can never overwrite the sidecar. nullptr detaches, restoring the
     * unverified path bit-exactly; the map must outlive the controller
     * or be detached first. Refused with FAILED_PRECONDITION unless
     * quiescent(): in-flight reads verify against the map.
     */
    util::Status attach_integrity(storage::IntegrityMap *map);
    storage::IntegrityMap *integrity() { return integrity_; }

    /// @name Scrub introspection (tests + benches).
    /// @{
    bool scrub_running() const { return scrub_running_; }
    std::uint64_t scrub_progress() const { return scrub_progress_; }
    std::uint64_t scrub_errors() const { return scrub_errors_; }
    std::uint64_t integrity_mismatches() const
    {
        return integrity_mismatches_;
    }
    std::uint64_t integrity_repairs() const { return integrity_repairs_; }
    /// @}

    /**
     * Lifecycle tracer. Off by default; enable() starts span
     * collection at every pipeline stage (doorbell, fetch, queue wait,
     * translation, walk, DMA, transfer, completion) plus the PCIe-link
     * track. Enabling also mirrors the tracer into the DMA engine and
     * hooks the link's BandwidthServer.
     */
    obs::Tracer &tracer() { return tracer_; }
    /** Starts tracing (see obs::Tracer::enable). */
    void enable_tracing(
        std::size_t capacity = obs::Tracer::kDefaultCapacity);
    void disable_tracing();

    /**
     * Always-on telemetry plane (DESIGN.md §8): windowed per-function
     * latency accounting + SLO watch, flight recorder with postmortem
     * capture, and the metrics time-series sampler. All off at reset;
     * the PF arms them through the observability register block
     * (reg::kObsWindowNs / kFlightCtrl / kSamplerIntervalNs).
     */
    /// @{
    const obs::SloWatch &slo_watch() const { return slo_; }
    obs::FlightRecorder &flight_recorder() { return flight_; }
    const obs::FlightRecorder &flight_recorder() const { return flight_; }
    const obs::TimeSeriesSampler &sampler() const { return sampler_; }
    /** Accounting window length; 0 while windowed accounting is off. */
    sim::Duration obs_window_ns() const { return obs_window_ns_; }
    /// @}

    /** Number of functions (PF + max_vfs). */
    pcie::FunctionId num_functions() const
    {
        return static_cast<pcie::FunctionId>(config_.max_vfs + 1);
    }

    bool is_active(pcie::FunctionId fn) const;
    const FunctionStats &stats(pcie::FunctionId fn) const;

    /**
     * Per-stage latency distributions (nanoseconds), recorded for
     * every completed block operation: time waiting for arbitration,
     * time in translation (BTLB or walk), and time in the
     * data-transfer stage including pLBA queueing. The sum of the
     * stage means is the device-internal block latency. Log-bucketed
     * histograms with exact count/sum, so long benches accumulate in
     * O(1) memory and the means stay exact (they are cross-checked
     * against trace-span totals to within rounding).
     */
    const obs::LogHistogram &stage_queue_wait() const { return stage_queue_; }
    const obs::LogHistogram &stage_translation() const { return stage_translate_; }
    const obs::LogHistogram &stage_transfer() const { return stage_transfer_; }
    /** Pending fault kind of a VF (kNone when running). */
    FaultKind fault_kind(pcie::FunctionId fn) const;
    /** True while @p fn is quarantined. */
    bool quarantined(pcie::FunctionId fn) const;
    /** Cause of @p fn's quarantine (kNone when running). */
    QuarantineCause quarantine_cause(pcie::FunctionId fn) const;
    /** The per-function DMA permission table (PF-programmed). */
    const pcie::DmaWindowTable &dma_windows() const { return dma_windows_; }

    /** True when no request is queued or in flight anywhere. */
    bool quiescent() const;

    // --- Arbitration/queue-pair introspection (tests + benches) ------

    /** Current arbitration mode (reg::kArbMode). */
    ArbMode arb_mode() const { return arb_mode_; }
    /** Legacy-WRR credit left in the current turn. */
    std::uint32_t arb_credit() const { return rr_credit_; }
    /** DWRR deficit (blocks) banked by @p fn. */
    std::uint64_t arb_deficit(pcie::FunctionId fn) const
    {
        return contexts_.at(fn).arb_deficit;
    }
    /** Cumulative eligible-bitmap words examined by turn-over scans. */
    std::uint64_t arb_scan_words() const
    {
        return arb_eligible_.scan_words();
    }
    /** Total block grants issued by the arbiter (VF plane only). */
    std::uint64_t arb_grants() const { return arb_grants_; }
    /** Live queue pairs of @p fn (including pair 0; 0 if inactive). */
    std::uint32_t queue_pair_count(pcie::FunctionId fn) const;
    /** Per-queue counters, or nullptr when (fn, qid) has no live pair. */
    const QueuePairStats *queue_pair_stats(pcie::FunctionId fn,
                                           std::uint32_t qid) const;

  private:
    /** Outstanding command: blocks remaining + sticky worst status. */
    struct PendingCommand {
        std::uint32_t remaining = 0;
        CompletionStatus status = CompletionStatus::kOk;
        sim::Time t_start = 0; ///< fetch time, for the command watchdog
        std::uint16_t qid = 0; ///< queue pair the command arrived on
    };
    /**
     * Generational reference into the command arena. Block ops carry
     * one, so per-block completion is an index, not a hash lookup; a
     * stale ref (FLR/abort/quarantine released the command) is the
     * drop-the-work teardown signal.
     */
    using CmdRef = sim::Arena<PendingCommand>::Handle;

    /** One device block operation (commands split to 1 KiB blocks). */
    struct BlockOp {
        pcie::FunctionId fn;
        Opcode op;
        extent::Vlba vlba;
        pcie::HostAddr buffer; ///< host address for this block's data
        std::uint64_t tag;
        std::uint16_t qid = 0; ///< queue pair the op was fetched from
        CmdRef cmd; ///< owning command in cmd_arena_
        /**
         * Set when the op was replayed after riding an in-flight walk
         * that did not resolve it; a replayed op always launches its
         * own walk, bounding coalescing to one round per op.
         */
        bool no_coalesce = false;
        // Stage timestamps for the latency-breakdown instrumentation.
        sim::Time t_queued = 0;    ///< entered the per-function queue
        sim::Time t_arbitrated = 0; ///< won arbitration into the vLBA queue
        sim::Time t_translated = 0; ///< translation resolved
    };

    /** A completion waiting in a function's coalesced flush batch. */
    struct QueuedCompletion {
        std::uint64_t tag;
        CompletionStatus status;
    };

    /** SQ/CQ pair instantiated for the controller's op types. */
    using Qp = QueuePair<BlockOp, QueuedCompletion>;
    /** Generational reference into the queue-pair arena. */
    using QpRef = sim::Arena<Qp>::Handle;

    /** Per-function device context. */
    struct FunctionContext {
        bool active = false;
        pcie::HostAddr extent_tree_root = pcie::kNullHostAddr;
        std::uint64_t device_size_blocks = 0;
        std::uint64_t miss_address = 0; ///< byte offset in virtual device
        std::uint32_t miss_size = 0;
        /**
         * Live queue pairs, indexed by qid; a stale handle marks a
         * deleted pair. Pair 0 exists for the function's whole active
         * life and is aliased by the legacy ring-base/doorbell/
         * interrupt-vector registers (single-ring paper mode).
         */
        std::vector<QpRef> qps;
        /** PF-programmed total queue-pair quota (including pair 0). */
        std::uint32_t qp_quota = 1;
        /** reg::kQpSelect latch (driver-owned). */
        std::uint32_t qp_select = 0;
        /** MgmtStatus-style result of the last reg::kQpCommand. */
        std::uint32_t qp_status = 0;
        // Staged admin values consumed by QpCommand::kCreate.
        pcie::HostAddr qp_sq_latch = pcie::kNullHostAddr;
        pcie::HostAddr qp_cq_latch = pcie::kNullHostAddr;
        std::uint32_t qp_irq_latch = 0;
        /** Intra-tenant plain-RR cursor over the function's pairs. */
        std::uint32_t rr_qp_cursor = 0;
        /** Total ops staged across all pairs (eligibility is O(1)). */
        std::uint64_t queued_ops = 0;
        /** DWRR deficit in blocks (banked while backlogged). */
        std::uint64_t arb_deficit = 0;
        /** Optional PF-programmed rate limit (kSetRateLimit). */
        TokenBucket bucket;
        std::uint32_t qos_weight = 1;
        /** Command watchdog period in ns; 0 disables it. */
        sim::Duration watchdog_ns = 0;
        bool watchdog_armed = false; ///< an expiry check is scheduled
        FaultKind fault = FaultKind::kNone;
        /**
         * Quarantine state: doorbells ignored, no translation or
         * transfer service, fault IRQs suppressed. Only the PF's
         * kReleaseQuarantine lifts it; the VF's own FnReset is
         * latched out while quarantined.
         */
        bool quarantined = false;
        QuarantineCause quarantine_cause = QuarantineCause::kNone;
        /** Validation-fault timestamps inside the storm window. */
        std::deque<sim::Time> recent_validation_faults;
        /**
         * Bumped whenever the function's mapping may have changed
         * (SetExtentRoot, RewalkTree, reset, delete). A walk started
         * under an older generation replays instead of delivering a
         * result derived from the stale tree.
         */
        std::uint64_t tree_generation = 0;
        util::RingQueue<BlockOp> stalled_ops; ///< parked on a fault
        /** tag -> live command in cmd_arena_ (per-tag ops: abort). */
        util::FlatMap<CmdRef> pending;
        FunctionStats stats;
    };

    /** In-flight block walk state. */
    struct Walk {
        BlockOp op;
        pcie::HostAddr node;
        std::uint32_t levels = 0;
        sim::Time t_start = 0; ///< walk launch, for the kWalk trace span
        /** Mapping generation of the function when the walk started. */
        std::uint64_t generation = 0;
        /**
         * MSHR-attached misses: ops whose BTLB miss landed within the
         * coalescing window of this walk while it was in flight. They
         * resolve with the walk's extent when covered, else replay.
         */
        std::vector<BlockOp> secondaries;
    };
    /**
     * Generational reference into the walk arena (the walk-MSHR
     * pool). Walk continuations capture the 8-byte ref instead of a
     * shared_ptr; ownership is single-chained, so each ref is live
     * until its resolution path retires it.
     */
    using WalkRef = sim::Arena<Walk>::Handle;

    // Queue-pair lifecycle.
    /** Live pair (fn, qid), or nullptr when absent. */
    Qp *qp(FunctionContext &c, std::uint32_t qid);
    const Qp *qp(const FunctionContext &c, std::uint32_t qid) const;
    /** Pair 0; never nullptr while the function is active. */
    Qp *qp0(FunctionContext &c) { return qp(c, 0); }
    /** Creates pair 0 at function activation (legacy single ring). */
    void create_qp0(FunctionContext &c);
    /** Executes reg::kQpCommand; returns the MgmtStatus-style result. */
    std::uint32_t qp_admin_execute(pcie::FunctionId fn, QpCommand cmd);
    /**
     * Tears down pair @p qid: its staged ops are dropped and every
     * command that arrived on it is aborted (the completions die with
     * the queue — the driver chose to delete it live).
     */
    void destroy_qp(pcie::FunctionId fn, std::uint32_t qid);
    /** FLR teardown: deletes pairs >= 1, resets pair 0 in place. */
    void reset_queue_pairs(FunctionContext &c);
    /** Doorbell write for (fn, qid); dead qids are dropped+counted. */
    util::Status doorbell_write(pcie::FunctionId fn, std::uint32_t qid);

    // Pipeline stages.
    void pump();
    void fetch_commands(pcie::FunctionId fn, std::uint32_t qid);
    void arbitrate();
    /**
     * Recomputes @p fn's bit in the eligible set (active, not
     * quarantined, fault-free, work staged; the PF never enters — its
     * OOB channel bypasses arbitration). Called at every transition
     * that can change the predicate.
     */
    void update_arb_eligibility(pcie::FunctionId fn);
    /**
     * Next grantable function strictly after @p from in cyclic order,
     * skipping rate-blocked ones (scheduling the rate pump for the
     * earliest refill among them); -1 when nothing is runnable.
     */
    int next_eligible(std::uint32_t from);
    /** Pops one staged op from @p c (intra-tenant RR over its pairs). */
    void grant_one(FunctionContext &c);
    /** One-shot wakeup so rate-blocked queues resume without traffic. */
    void schedule_rate_pump(sim::Time at);
    void start_walks();
    void begin_translation(BlockOp op);
    void walk_node(WalkRef walk);
    void walk_entries(WalkRef walk, extent::NodeHeaderRecord header);
    void walk_process(WalkRef walk, NodeKindTag kind,
                      std::uint32_t count,
                      const std::vector<std::byte> &data);
    /**
     * True when the walk's function was deleted or its mapping
     * generation moved while the walk was in flight; the walk is then
     * retired and its ops replayed (stale results are never used).
     */
    bool walk_canceled(WalkRef walk);
    // Walk resolution: retire the walk, settle its secondaries,
    // release the walker slot.
    void walk_resolved_mapped(WalkRef walk, const extent::Extent &extent);
    void walk_resolved_hole(WalkRef walk);
    void walk_resolved_fault(WalkRef walk, FaultKind kind);
    /** Records the kWalk span and releases the walk's arena slot. */
    void retire_walk(WalkRef walk);
    /** Prepends @p ops to the vLBA queue for another translation pass. */
    void replay_ops(std::vector<BlockOp> ops, bool mark_no_coalesce);
    void finish_mapped(const BlockOp &op, const extent::Extent &extent);
    void finish_hole(const BlockOp &op);
    void finish_fault(const BlockOp &op, FaultKind kind);
    void release_walker();
    void start_transfers();
    /**
     * The data-transfer unit: DMA -> media -> verify -> DMA. Reads go
     * media, verify, DMA to the host; writes go DMA from the host,
     * then media (which records the checksum). The same path serves
     * the local device and a replica set.
     */
    void start_transfer(const BlockOp &op, extent::Plba plba);
    void start_zero_fill(const BlockOp &op);
    /** Retires a transfer: completes the block and restarts the pipe. */
    void finish_transfer(const BlockOp &op, CompletionStatus status);
    /**
     * Media context for a block: the sidecar when payload checksums are
     * verified/recorded for @p plba.
     */
    storage::MediaOp media_op(extent::Plba plba) const;
    /** Books a detected mismatch against @p fn (stats, trace, metrics). */
    void note_checksum_mismatch(pcie::FunctionId fn, const BlockOp &op);

    /** A read's place on the integrity recovery ladder. */
    struct Ladder {
        BlockOp op;
        extent::Plba plba = 0;
        sim::Time t_rung = 0; ///< issue of the rung's read (kChecksum span)
        std::uint32_t bad = 0; ///< backend that served the damaged payload
        std::uint32_t rereads_left = 0;
        std::uint32_t next_alt = 0; ///< next alternate backend to try
        std::uint32_t from = 0;     ///< backend the rung reads
    };
    /**
     * Recovery ladder for a read whose payload failed verification:
     * rung 1 re-reads the backend that served (an in-flight flip
     * clears, stored damage does not), rung 2 reads each alternate
     * backend and the first verified copy repairs the damaged one in
     * place. Exhaustion completes kChecksumError. Loops while the
     * media answers inline, so the PF-set re-read limit costs no stack;
     * an answer on a later event climbs on from its callback. Owns the
     * staging buffer @p data until completion.
     */
    void climb_ladder(Ladder ladder, std::vector<std::byte> data);
    /**
     * Judges one rung's answer; true when it verified and the op was
     * finished (repairing the damaged copy after a rung-2 read).
     */
    bool ladder_rung_done(const Ladder &ladder, const util::Status &status,
                          std::vector<std::byte> &data);
    /** DMA of a verified read payload to the host + completion. */
    void finish_read_payload(const BlockOp &op,
                             std::vector<std::byte> data);
    // Background scrub machinery (PF mgmt commands).
    std::uint32_t scrub_start();
    std::uint32_t scrub_abort();
    void scrub_tick(std::uint64_t epoch);
    /** Rotates the accounting windows; stale epochs are no-ops. */
    void obs_window_tick(std::uint64_t epoch);
    /** Takes one metrics sample; stale epochs are no-ops. */
    void sampler_tick(std::uint64_t epoch);
    /** SloWatch breach hook: stats + metrics + trace + log. */
    void on_slo_breach(const obs::SloBreach &breach);
    /** Verifies (and repairs, when possible) one pLBA; see scrub_tick. */
    void scrub_block(std::uint64_t plba);
    void complete_block(const BlockOp &op, CompletionStatus status);
    /**
     * Opens command state in the arena (remaining blocks, fetch time,
     * arrival queue) and maps @p tag to it, releasing any same-tag
     * predecessor.
     */
    CmdRef open_command(FunctionContext &c, std::uint64_t tag,
                        std::uint32_t remaining, sim::Time t_start,
                        std::uint16_t qid);
    /**
     * Funnel for every guest-visible completion; records post to the
     * CQ of the pair the command arrived on. Paper mode posts one CQ
     * write + MSI after completion_cost; kCompletionBatch mode appends
     * to the pair's batch and (at most once per window) schedules a
     * flush that posts all records and raises one MSI.
     */
    void enqueue_completion(pcie::FunctionId fn, std::uint16_t qid,
                            std::uint64_t tag, CompletionStatus status);
    void flush_completions(pcie::FunctionId fn, std::uint16_t qid);
    void post_completion(pcie::FunctionId fn, std::uint16_t qid,
                         std::uint64_t tag, CompletionStatus status);
    /**
     * Ring-attach + CQ push + stats/trace for one completion; true
     * when the completion reached the point that raises the MSI.
     */
    bool post_completion_record(pcie::FunctionId fn, std::uint16_t qid,
                                std::uint64_t tag,
                                CompletionStatus status);
    void raise_completion_irq(pcie::FunctionId fn, std::uint16_t qid);
    void handle_rewalk(pcie::FunctionId fn);
    void fail_stalled(pcie::FunctionId fn);
    std::uint32_t mgmt_execute(MgmtCommand command);
    /** False while the optional block behind @p gate is detached. */
    bool block_attached(reg::Gate gate) const;

    // Untrusted-guest containment.
    /** OK, or why the descriptor must be rejected kMalformed. */
    util::Status validate_command(const FunctionContext &c,
                                  const CommandRecord &rec) const;
    /** Validates the ring header + shadow counters before a drain. */
    util::Status validate_cmd_ring(Qp &q);
    /** Counts a validation fault; quarantines past the threshold. */
    void note_validation_fault(pcie::FunctionId fn, QuarantineCause cause);
    /** DMA-window violation hook (immediate quarantine). */
    void note_dma_violation(pcie::FunctionId fn, pcie::HostAddr addr,
                            std::uint64_t size);
    /** Moves @p fn to quarantine: aborts in-flight, seals doorbells. */
    void quarantine(pcie::FunctionId fn, QuarantineCause cause);
    /** PF-initiated release: FnReset + fault-history clear. */
    void release_quarantine(pcie::FunctionId fn);

    // Error containment.
    void arm_watchdog(pcie::FunctionId fn);
    void watchdog_fire(pcie::FunctionId fn);
    void abort_command(pcie::FunctionId fn, std::uint64_t tag);
    void function_level_reset(pcie::FunctionId fn);
    /** Drops @p fn's ops (optionally one tag) from the shared queues. */
    void purge_shared_queues(pcie::FunctionId fn,
                             std::optional<std::uint64_t> tag);
    /** True when the fn is fully idle (nothing queued or in flight). */
    bool function_quiescent(pcie::FunctionId fn) const;

    FunctionContext &ctx(pcie::FunctionId fn) { return contexts_[fn]; }

    sim::Simulator &simulator_;
    pcie::HostMemory &host_memory_;
    storage::BlockDevice &device_;
    /** device_ as one-backend media: the data path's default media. */
    storage::LocalMedia local_media_;
    /** Media behind the data-transfer unit: local_media_ or the set. */
    storage::Media *media_ = &local_media_;
    /**
     * True while a replica set serves the media: its routed reads and
     * writes cross links, so each gets a kReplRead/kReplWrite span and
     * a repl_reads/repl_writes count of its own. The local leg's media
     * time is part of the kTransfer span.
     */
    bool media_spans_ = false;
    /** Where a ladder rung answered inline; see climb_ladder. */
    struct LadderAnswer {
        bool arrived = false;
        util::Status status;
        std::vector<std::byte> data;
    };
    LadderAnswer *ladder_inline_ = nullptr;
    /** Replication layer (PF registers); nullptr = local media. */
    repl::ReplicaSet *replicas_ = nullptr;
    /** reg::kReplBackendSelect latch. */
    std::uint32_t repl_backend_select_ = 0;
    /** Checksum sidecar; nullptr = unverified path. */
    storage::IntegrityMap *integrity_ = nullptr;
    /** reg::kIntegrityCtrl bit0 (verification on; 1 at attach). */
    bool integrity_enabled_ = false;
    /** reg::kIntegrityRereadLimit. */
    std::uint32_t integrity_reread_limit_ = 1;
    std::uint64_t integrity_mismatches_ = 0;
    std::uint64_t integrity_repairs_ = 0;
    // Background scrubber (MgmtCommand::kScrubStart / kScrubAbort).
    bool scrub_running_ = false;
    /** Next pLBA the scrubber will verify. */
    std::uint64_t scrub_next_ = 0;
    std::uint64_t scrub_progress_ = 0;
    std::uint64_t scrub_errors_ = 0;
    /** Bumped on start/abort; invalidates scheduled scrub ticks. */
    std::uint64_t scrub_epoch_ = 0;
    std::uint64_t scrub_batch_ = 64;
    sim::Duration scrub_interval_ = 100'000; // 100 us
    pcie::InterruptController &irq_;
    ControllerConfig config_;
    pcie::DmaWindowTable dma_windows_;
    pcie::DmaEngine dma_;
    Btlb btlb_;
    ExtentNodeCache node_cache_;
    /** Runtime coalescing knobs (reg::kWalkCoalesce overrides config). */
    bool walk_coalescing_ = false;
    std::uint32_t coalesce_window_ = 0;

    std::vector<FunctionContext> contexts_;
    util::RingQueue<BlockOp> vlba_queue_;
    util::RingQueue<std::pair<BlockOp, extent::Plba>> plba_queue_;
    /** Walk-MSHR pool; continuations hold WalkRefs into it. */
    sim::Arena<Walk> walk_arena_;
    /** In-flight command state; BlockOp::cmd points into it. */
    sim::Arena<PendingCommand> cmd_arena_;
    /** Queue-pair pool; FunctionContext::qps holds QpRefs into it. */
    sim::Arena<Qp> qp_arena_;
    /** Primary walks in flight, for MSHR attachment. */
    std::vector<WalkRef> inflight_walks_;
    /** Sorted ids of active VFs (DeleteVf audit + test introspection). */
    std::vector<pcie::FunctionId> active_vfs_;
    /** Grantable functions; turn-over scans this, never active_vfs_. */
    EligibleSet arb_eligible_;
    pcie::FunctionId rr_current_ = 0; ///< VF currently holding the turn
    std::uint32_t rr_credit_ = 0;     ///< blocks left in the turn (WRR)
    ArbMode arb_mode_ = ArbMode::kLegacyWrr;
    std::uint32_t arb_quantum_ = 1; ///< DWRR blocks per weight unit
    /** A DWRR turn is open: rr_current_ still holds banked deficit. */
    bool dwrr_turn_live_ = false;
    std::uint64_t arb_grants_ = 0;
    /** Functions with a live rate limit (0 = skip all bucket logic). */
    std::uint32_t rate_limited_fns_ = 0;
    bool rate_pump_scheduled_ = false;
    sim::Time rate_pump_at_ = 0;
    std::uint32_t active_walks_ = 0;
    std::uint32_t inflight_transfers_ = 0;
    // Runtime batching knobs (reg::kFetchBatch / kCompletionBatch).
    std::uint32_t fetch_batch_ = 0;
    bool completion_batch_ = false;

    // PF management scratch registers.
    std::uint32_t mgmt_vf_id_ = 0;
    pcie::HostAddr mgmt_extent_root_ = pcie::kNullHostAddr;
    std::uint64_t mgmt_device_size_ = 0;
    std::uint32_t mgmt_qos_weight_ = 1;
    std::uint32_t mgmt_qp_quota_ = 1;
    std::uint64_t mgmt_rate_bps_ = 0;
    std::uint64_t mgmt_rate_burst_ = 0;
    std::uint32_t mgmt_status_ =
        static_cast<std::uint32_t>(MgmtStatus::kIdle);
    // Staged DMA-window range and runtime quarantine tuning (PF-only).
    pcie::HostAddr dma_window_base_ = pcie::kNullHostAddr;
    std::uint64_t dma_window_size_ = 0;
    std::uint32_t quarantine_threshold_ = 0;
    sim::Duration quarantine_window_ = 0;

    obs::MetricsRegistry metrics_;
    // Interned handles for every counter the pipeline bumps per block
    // or per record; cold/error counters go through metrics_.bump().
    obs::MetricsRegistry::Handle h_btlb_hits_;
    obs::MetricsRegistry::Handle h_btlb_misses_;
    obs::MetricsRegistry::Handle h_node_cache_hits_;
    obs::MetricsRegistry::Handle h_node_cache_misses_;
    obs::MetricsRegistry::Handle h_walk_node_reads_;
    obs::MetricsRegistry::Handle h_walk_coalesced_;
    obs::MetricsRegistry::Handle h_walk_coalesced_resolved_;
    obs::MetricsRegistry::Handle h_walk_replays_;
    obs::MetricsRegistry::Handle h_commands_fetched_;
    obs::MetricsRegistry::Handle h_completions_;
    obs::MetricsRegistry::Handle h_holes_zero_filled_;
    obs::MetricsRegistry::Handle h_oob_requests_;
    obs::MetricsRegistry::Handle h_repl_reads_;
    obs::MetricsRegistry::Handle h_repl_writes_;
    obs::Tracer tracer_;
    obs::LinkTraceObserver link_observer_;
    obs::LogHistogram stage_queue_;
    obs::LogHistogram stage_translate_;
    obs::LogHistogram stage_transfer_;
    /** reg::kTelemetrySelect latch: fn in [15:0], index in [31:16]. */
    std::uint32_t telemetry_select_ = 0;

    // Always-on telemetry plane (all disabled at reset).
    obs::SloWatch slo_;
    obs::FlightRecorder flight_;
    obs::TimeSeriesSampler sampler_{metrics_};
    /** reg::kObsWindowNs: window length; 0 = accounting off. */
    sim::Duration obs_window_ns_ = 0;
    /** Invalidates in-flight window-rotation timer events. */
    std::uint64_t obs_window_epoch_ = 0;
    /** reg::kSamplerIntervalNs: sampling period; 0 = sampler off. */
    sim::Duration sampler_interval_ = 0;
    /** Invalidates in-flight sampler timer events. */
    std::uint64_t sampler_epoch_ = 0;
    /** Staged reg::kSloMaxP99Ns for MgmtCommand::kSetSlo. */
    std::uint64_t slo_max_p99_ns_ = 0;
    /** Staged reg::kSloMaxErrorPpm for MgmtCommand::kSetSlo. */
    std::uint64_t slo_max_error_ppm_ = 0;
    /** reg::kSloSelect latch: fn in [15:0], stage in [19:16]. */
    std::uint32_t slo_select_ = 0;
    /** reg::kSloBreachSelect latch. */
    std::uint32_t slo_breach_select_ = 0;
    /** reg::kFlightDepth latch; applied at the next enable. */
    std::uint64_t flight_depth_ = obs::FlightRecorder::kDefaultDepth;
    /** reg::kPostmortemSelect latch: pm in [15:0], event in [31:16]. */
    std::uint32_t postmortem_select_ = 0;
};

} // namespace nesc::ctrl

#endif // NESC_CTRL_CONTROLLER_H
