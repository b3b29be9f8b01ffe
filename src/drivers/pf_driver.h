/**
 * @file
 * Hypervisor-side PF management driver (paper §IV.C, §VI).
 *
 * The PF driver is "both a block device driver and the management
 * driver for creating and deleting VFs". It:
 *  - exports the raw physical device to the hypervisor through the PF
 *    data path (out-of-band channel, no translation);
 *  - creates a VF for a host file: queries the filesystem's extent
 *    mapping (FIEMAP), serializes it into the device's extent-tree
 *    ABI in host memory, and programs the VF through the PF mgmt
 *    registers;
 *  - services translation faults: on a write miss it asks the
 *    filesystem to allocate the missing range, rebuilds the tree, and
 *    writes RewalkTree; on a pruned-subtree fault it regenerates the
 *    mapping the same way;
 *  - can prune VF trees under memory pressure and flush the device
 *    BTLB when host-side block optimizations move data.
 */
#ifndef NESC_DRIVERS_PF_DRIVER_H
#define NESC_DRIVERS_PF_DRIVER_H

#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "drivers/function_driver.h"
#include "extent/tree_image.h"
#include "fs/nestfs.h"
#include "nesc/controller.h"

namespace nesc::drv {

/**
 * How the hypervisor services a media/metadata corruption fault
 * (FaultKind::kTreeCorrupt): the device detected garbage while
 * walking a VF's extent tree (bad node magic/kind/bounds, or a
 * poisoned DMA read) and faulted the VF.
 */
enum class MediaErrorPolicy : std::uint8_t {
    /** Regenerate the tree from the filesystem and rewalk (default). */
    kRebuild = 0,
    /** Function-level-reset the VF; its driver resubmits. */
    kReset = 1,
};

/** PF driver tuning. */
struct PfDriverConfig {
    FunctionDriverConfig function;
    /** Extent-tree node fanout used when serializing VF mappings. */
    extent::TreeConfig tree;
    /** Hypervisor CPU cost to enter/exit the fault service routine. */
    sim::Duration fault_service_cost = 2'000;
    /** Allocate this many blocks per write-miss service (batching
     * amortizes faults on streaming writes; 0 means exactly the miss). */
    std::uint64_t allocation_batch_blocks = 32;
    /** Service policy for tree-corruption faults. */
    MediaErrorPolicy media_error_policy = MediaErrorPolicy::kRebuild;
};

/** Hypervisor view of one created VF. */
struct VfInfo {
    pcie::FunctionId fn = 0;
    fs::InodeId backing_file = fs::kInvalidInode;
    std::uint64_t size_blocks = 0;
};

/** One telemetry counter as read from the device directory over MMIO. */
struct TelemetryEntry {
    std::string name;
    std::uint64_t value = 0;
};

/**
 * One function's closed accounting window for one latency stage, read
 * through the PF-only observability registers (select latch + RO
 * mirrors). Latencies are nanoseconds.
 */
struct SloWindow {
    std::uint64_t p50 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;
    /** Ops / errored ops completed in the window (stage-independent). */
    std::uint64_t ops = 0;
    std::uint64_t errors = 0;
    /** Start timestamp of the window. */
    sim::Time window_start = 0;
};

/** One entry of the device's SLO breach directory. */
struct SloBreachEntry {
    std::uint64_t observed = 0;
    std::uint64_t threshold = 0;
    sim::Time window_start = 0;
    std::uint16_t fn = 0;
    /** Raw obs::SloMetric (0 latency p99, 1 error rate). */
    std::uint8_t metric = 0;
};

/**
 * Health snapshot of one replication backend, read through the PF-only
 * kReplBackend* register window (select latch + RO mirrors).
 */
struct ReplBackendStatus {
    /** Raw repl::BackendState (0 healthy, 1 down, 2 resyncing). */
    std::uint64_t state = 0;
    /** Blocks this backend still owes (dirty-extent log size). */
    std::uint64_t dirty_blocks = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t errors = 0;
    /** Blocks copied by background resync since attach. */
    std::uint64_t resync_copied = 0;
};

/** The PF management driver; see file comment. */
class PfDriver {
  public:
    PfDriver(sim::Simulator &simulator, pcie::HostMemory &host_memory,
             pcie::BarPageRouter &bar, pcie::InterruptController &irq,
             const PfDriverConfig &config = {});
    ~PfDriver();

    /**
     * Attaches the hypervisor filesystem holding the backing files.
     * The FS is typically mounted over this driver's own PF data
     * path, so it cannot exist at construction time; VF creation and
     * fault service require it. Must outlive the driver.
     */
    void attach_filesystem(fs::NestFs &hypervisor_fs) { fs_ = &hypervisor_fs; }

    PfDriver(const PfDriver &) = delete;
    PfDriver &operator=(const PfDriver &) = delete;

    /** Sets up the PF data path and installs the fault handler. */
    util::Status init();

    /**
     * Creates a VF exporting @p backing_file as a virtual disk of
     * @p size_blocks device blocks (may exceed the file's currently
     * allocated size — lazy allocation). Returns the VF function id.
     */
    util::Result<pcie::FunctionId> create_vf(fs::InodeId backing_file,
                                             std::uint64_t size_blocks);

    /**
     * Creates a second VF sharing @p owner_fn's extent tree — and
     * thereby its backing file (paper §IV.B: "the design also enables
     * multiple VFs to share an extent tree and thereby files"; NeSC
     * guarantees tree consistency, data synchronization is up to the
     * client VMs). The new VF exports @p size_blocks (typically the
     * owner's size).
     */
    util::Result<pcie::FunctionId>
    create_vf_shared(pcie::FunctionId owner_fn, std::uint64_t size_blocks);

    /**
     * Tears down a VF and frees its extent tree. A VF whose tree is
     * still shared by other VFs cannot be deleted until the sharers
     * are gone.
     */
    util::Status delete_vf(pcie::FunctionId fn);

    /**
     * Sets the VF's arbitration weight: the multiplexer serves that
     * many blocks per round-robin turn (QoS extension, §IV.D).
     */
    util::Status set_qos_weight(pcie::FunctionId fn, std::uint32_t weight);

    /**
     * Programs the VF's queue-pair quota (total pairs it may hold,
     * including pair 0; must be in [1, ctrl::kMaxQueuePairs]). The
     * guest driver then admin-creates pairs up to the quota.
     */
    util::Status set_qp_quota(pcie::FunctionId fn, std::uint32_t quota);

    /**
     * Programs a token-bucket rate limit on the VF's arbitration
     * grants: @p bytes_per_sec sustained (0 removes the limit) with
     * @p burst_bytes of banked burst capacity.
     */
    util::Status set_rate_limit(pcie::FunctionId fn,
                                std::uint64_t bytes_per_sec,
                                std::uint64_t burst_bytes);

    /** Selects the arbitration policy (legacy WRR vs banked DWRR). */
    util::Status set_arb_mode(ctrl::ArbMode mode);

    /** Programs the DWRR per-turn quantum (grants per weight unit). */
    util::Status set_arb_quantum(std::uint32_t quantum);

    /** Hypervisor-triggered BTLB flush (e.g. after dedup). */
    util::Status flush_btlb();

    /**
     * True when the controller has a replica set attached — probed by
     * reading kReplQuorum, which master-aborts (all-ones) otherwise.
     */
    bool repl_attached();

    /** Programs the write-ack quorum (clamped to >= 1 by the device). */
    util::Status set_repl_quorum(std::uint32_t quorum);

    /** Programs the per-backend read failover timeout. */
    util::Status set_repl_read_timeout(sim::Duration timeout_ns);

    /**
     * Reads one backend's health block: latches kReplBackendSelect,
     * then reads the RO state/dirty/timeout/error/resync mirrors.
     * NOT_FOUND on an out-of-range backend (all-ones master abort)
     * or when no replica set is attached.
     */
    util::Result<ReplBackendStatus>
    repl_backend_status(std::uint32_t backend);

    /** Total read-path failover events across all backends. */
    util::Result<std::uint64_t> repl_failovers();

    /**
     * Forces @p backend out of the read/write set (administrative
     * demotion, e.g. ahead of planned maintenance). Foreground writes
     * keep accumulating in its dirty log for a later resync.
     */
    util::Status repl_demote(std::uint32_t backend);

    /** Starts background resync of @p backend from a healthy peer. */
    util::Status repl_resync(std::uint32_t backend);

    /**
     * Drives the simulator until @p backend's resync converges (its
     * state register reads healthy again) or @p max_steps register
     * polls have elapsed. Each poll advances the simulator by
     * @p poll_interval. Returns the number of polls used.
     */
    util::Result<std::uint64_t>
    repl_wait_resync(std::uint32_t backend,
                     sim::Duration poll_interval = 100'000,
                     std::uint64_t max_steps = 100'000);

    /**
     * True when the controller has a checksum sidecar attached —
     * probed by reading kIntegrityCtrl, which master-aborts
     * (all-ones) otherwise.
     */
    bool integrity_attached();

    /** Turns read-path verification / write-path recording on or off. */
    util::Status set_integrity_enabled(bool enabled);

    /** Programs the bounded re-read count of the recovery ladder. */
    util::Status set_integrity_reread_limit(std::uint32_t limit);

    /** Checksum mismatches detected device-wide (reads + scrub). */
    util::Result<std::uint64_t> integrity_mismatches();

    /** Blocks repaired in place from a verified replica. */
    util::Result<std::uint64_t> integrity_repairs();

    /** Shapes the background scrub: blocks per batch, batch spacing. */
    util::Status set_scrub_rate(std::uint64_t batch_blocks,
                                sim::Duration interval_ns);

    /** Kicks off a full-media background scrub pass. */
    util::Status scrub_start();

    /** Stops an in-flight scrub pass. */
    util::Status scrub_abort();

    /** Scrub status registers: running flag, progress, error count. */
    util::Result<bool> scrub_running();
    util::Result<std::uint64_t> scrub_progress();
    util::Result<std::uint64_t> scrub_errors();

    /**
     * Drives the simulator until the running scrub pass completes or
     * @p max_steps register polls have elapsed, advancing the
     * simulator by @p poll_interval per poll. Returns polls used.
     */
    util::Result<std::uint64_t>
    scrub_wait(sim::Duration poll_interval = 100'000,
               std::uint64_t max_steps = 1'000'000);

    /**
     * Reads @p fn's full telemetry-counter directory through the
     * PF-only reg::kTelemetry* MMIO registers: counter count first,
     * then per index the packed name registers and the 64-bit value.
     * Self-describing — the driver carries no counter list of its own.
     * Fails with NOT_FOUND if the device rejects the selection (the
     * all-ones master-abort read), e.g. for an out-of-range function.
     */
    util::Result<std::vector<TelemetryEntry>>
    dump_telemetry(pcie::FunctionId fn);

    // --- Always-on telemetry plane (observability register block) ----

    /**
     * Sets the accounting window length: non-zero starts windowed
     * per-function latency accounting and SLO evaluation at each
     * rotation, zero stops it.
     */
    util::Status set_obs_window(sim::Duration window_ns);

    /**
     * Programs @p fn's SLO thresholds (MgmtCommand::kSetSlo): a p99
     * end-to-end latency ceiling in ns and an error-rate ceiling in
     * errored ops per million. Zeros unwatch the respective metric.
     */
    util::Status set_slo(pcie::FunctionId fn, std::uint64_t max_p99_ns,
                         std::uint64_t max_error_ppm);

    /**
     * Reads @p fn's closed window for @p stage (0 end-to-end, 1 queue
     * wait, 2 translate, 3 transfer). Fails with NOT_FOUND while
     * windowed accounting is off (the all-ones master-abort read).
     */
    util::Result<SloWindow> slo_window(pcie::FunctionId fn,
                                       std::uint32_t stage = 0);

    /** Reads the whole SLO breach directory (oldest first). */
    util::Result<std::vector<SloBreachEntry>> slo_breaches();

    /** Clears the breach directory (MgmtCommand::kSloBreachClear). */
    util::Status clear_slo_breaches();

    /**
     * Enables/disables the flight recorder. A non-zero @p depth first
     * programs the per-function ring depth; re-enable resets rings.
     */
    util::Status set_flight_recorder(bool enabled,
                                     std::uint64_t depth = 0);

    /** Postmortems currently retained in the device buffer. */
    util::Result<std::uint64_t> postmortem_count();

    /**
     * Dumps every retained postmortem as JSON by walking the PF-only
     * postmortem directory registers (select latch + RO mirrors):
     * `{"postmortems": [{"fn": .., "reason": "..", "at": ..,
     * "detail": .., "events": [{"type": "..", "at": .., "tag": ..,
     * "vlba": .., "aux": ..}, ...]}, ...]}`.
     */
    util::Result<std::string> dump_postmortem();

    /** Clears the postmortem buffer (MgmtCommand::kPostmortemClear). */
    util::Status clear_postmortems();

    /**
     * Sets the metrics time-series sampling interval: non-zero starts
     * the sampler (one immediate baseline sample), zero stops it.
     */
    util::Status set_sampler_interval(sim::Duration interval_ns);

    /**
     * Prunes the VF's resident tree for [first_vblock, +nblocks)
     * (memory pressure); the device faults on next access there.
     */
    util::Result<std::size_t> prune_vf_tree(pcie::FunctionId fn,
                                            std::uint64_t first_vblock,
                                            std::uint64_t nblocks);

    /** PF raw block data path (the paper's "Host" baseline device). */
    FunctionDriver &pf_data() { return *pf_data_; }

    const std::map<pcie::FunctionId, VfInfo> &vfs() const { return vfs_; }

    /** The resident extent-tree image of a VF (for inspection). */
    util::Result<const extent::ExtentTreeImage *>
    vf_tree(pcie::FunctionId fn) const
    {
        auto owner = tree_owner_.find(fn);
        if (owner == tree_owner_.end())
            return util::not_found_error("no such VF");
        auto it = trees_.find(owner->second);
        if (it == trees_.end())
            return util::not_found_error("no such VF");
        return const_cast<const extent::ExtentTreeImage *>(&it->second);
    }
    std::uint64_t faults_serviced() const { return faults_serviced_; }
    std::uint64_t write_misses_serviced() const
    {
        return write_misses_serviced_;
    }
    std::uint64_t prune_faults_serviced() const
    {
        return prune_faults_serviced_;
    }
    std::uint64_t tree_corrupt_serviced() const
    {
        return tree_corrupt_serviced_;
    }

    /**
     * Deny further allocations for @p fn: the next write-miss fault is
     * answered with a write failure instead of an allocation (quota
     * exhaustion path of Figure 5b).
     */
    void set_allocation_denied(pcie::FunctionId fn, bool denied);

  private:
    void handle_fault_irq();
    util::Status service_fault(pcie::FunctionId fn);
    util::Status rebuild_tree(pcie::FunctionId fn);
    util::Status reg_write(pcie::FunctionId fn, std::uint64_t offset,
                           std::uint64_t value);
    util::Result<std::uint64_t> reg_read(pcie::FunctionId fn,
                                         std::uint64_t offset);

    /** A PF staging-register write that precedes a management command. */
    struct MgmtStage {
        std::uint64_t offset;
        std::uint64_t value;
    };
    /** Writes @p staged in order, then MgmtCommand; reads no status. */
    util::Status mgmt_post(ctrl::MgmtCommand command,
                           std::initializer_list<MgmtStage> staged = {});
    /**
     * mgmt_post, then reads MgmtStatus back: a device rejection becomes
     * @p reject(@p rejected).
     */
    util::Status
    mgmt_command(ctrl::MgmtCommand command,
                 std::initializer_list<MgmtStage> staged,
                 const char *rejected,
                 util::Status (*reject)(std::string) =
                     util::failed_precondition_error);

    sim::Simulator &simulator_;
    pcie::HostMemory &host_memory_;
    pcie::BarPageRouter &bar_;
    pcie::InterruptController &irq_;
    fs::NestFs *fs_ = nullptr;
    PfDriverConfig config_;

    std::unique_ptr<FunctionDriver> pf_data_;
    std::map<pcie::FunctionId, VfInfo> vfs_;
    std::map<pcie::FunctionId, extent::ExtentTreeImage> trees_;
    /** fn -> fn owning the (possibly shared) tree; owners map to self. */
    std::map<pcie::FunctionId, pcie::FunctionId> tree_owner_;
    std::map<pcie::FunctionId, bool> allocation_denied_;
    pcie::FunctionId next_vf_ = 1;
    std::uint64_t faults_serviced_ = 0;
    std::uint64_t write_misses_serviced_ = 0;
    std::uint64_t prune_faults_serviced_ = 0;
    std::uint64_t tree_corrupt_serviced_ = 0;
};

} // namespace nesc::drv

#endif // NESC_DRIVERS_PF_DRIVER_H
