#include "controller.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unistd.h>

#include "extent/layout.h"
#include "nesc/register_table.h"
#include "repl/replica_set.h"
#include "storage/integrity_map.h"
#include "util/log.h"

#undef NESC_LOG_COMPONENT
#define NESC_LOG_COMPONENT "controller"

namespace nesc::ctrl {

namespace {
// Walk sanity bounds: no well-formed tree the hypervisor can build
// exceeds these, so crossing one means the node bytes are garbage.
constexpr std::uint32_t kMaxNodeEntries = 4096;
constexpr std::uint32_t kMaxWalkDepth = 64;
// No driver needs a deeper command ring; a bigger claimed capacity
// means the guest-written header is garbage.
constexpr std::uint32_t kMaxRingCapacity = 1u << 20;
// Shared vLBA queue depth.
constexpr std::uint32_t kVlbaQueueDepth = 16;
// Shared pLBA queue depth.
constexpr std::uint32_t kPlbaQueueDepth = 16;
// Data transfers in flight at once.
constexpr std::uint32_t kMaxInflightTransfers = 8;
// Pipeline cost of a BTLB lookup + queue management, per block.
constexpr sim::Duration kTranslationCost = 150;
// Parse cost per tree level, on top of the node DMA.
constexpr sim::Duration kNodeParseCost = 150;
// Completion record construction cost.
constexpr sim::Duration kCompletionCost = 250;
// Doorbell-to-fetch scheduling delay.
constexpr sim::Duration kDoorbellLatency = 200;
// Reset value of reg::kQuarantineWindowNs: the window in which
// quarantine_threshold validation faults quarantine a function.
constexpr sim::Duration kQuarantineWindow = 1'000'000; // 1 ms
// Largest nblocks a single CommandRecord may carry; bigger values are
// rejected kMalformed before any per-block state is allocated (a
// hostile nblocks of ~2^32 would otherwise expand into billions of
// queued block ops).
constexpr std::uint32_t kMaxCommandBlocks = 65536; // 64 MiB per command
// Per-block CRC32C compute/compare cost charged on the media service
// path while integrity is enabled (a 1 KiB block through a ~4 GB/s
// checksum engine). Zero-cost when the feature is off, so the golden
// figures are untouched.
constexpr sim::Duration kChecksumCostNs = 250;
} // namespace

using extent::ExtentPtrRecord;
using extent::NodeHeaderRecord;
using extent::NodeKind;
using extent::NodePtrRecord;

Controller::Controller(sim::Simulator &simulator,
                       pcie::HostMemory &host_memory,
                       storage::BlockDevice &device,
                       pcie::InterruptController &irq,
                       const ControllerConfig &config)
    : simulator_(simulator), host_memory_(host_memory), device_(device),
      local_media_(simulator, device, kChecksumCostNs), irq_(irq),
      config_(config), dma_(simulator, host_memory),
      btlb_(BtlbConfig{config.btlb_entries, config.btlb_sets,
                       config.btlb_range_shift}),
      node_cache_(config.node_cache_bytes),
      walk_coalesce_window_(config.walk_coalesce_window),
      contexts_(static_cast<std::size_t>(config.max_vfs) + 1),
      quarantine_threshold_(config.quarantine_threshold),
      quarantine_window_(kQuarantineWindow),
      link_observer_(tracer_)
{
    // Intern the hot pipeline counters once: per-block updates are then
    // a vector indexing, never a string-keyed map lookup.
    h_btlb_hits_ = metrics_.counter("btlb_hits");
    h_btlb_misses_ = metrics_.counter("btlb_misses");
    h_node_cache_hits_ = metrics_.counter("node_cache_hits");
    h_node_cache_misses_ = metrics_.counter("node_cache_misses");
    h_walk_node_reads_ = metrics_.counter("walk_node_reads");
    h_walk_coalesced_ = metrics_.counter("walk_coalesced");
    h_walk_coalesced_resolved_ =
        metrics_.counter("walk_coalesced_resolved");
    h_walk_replays_ = metrics_.counter("walk_replays");
    h_commands_fetched_ = metrics_.counter("commands_fetched");
    h_completions_ = metrics_.counter("completions");
    h_holes_zero_filled_ = metrics_.counter("holes_zero_filled");
    h_oob_requests_ = metrics_.counter("oob_requests");
    h_repl_reads_ = metrics_.counter("repl_reads");
    h_repl_writes_ = metrics_.counter("repl_writes");
    arb_eligible_.resize(contexts_.size());
    // The PF is permanently active and spans the whole physical device.
    FunctionContext &pf = contexts_[pcie::kPhysicalFunctionId];
    pf.active = true;
    pf.device_size_blocks = device_.geometry().num_blocks();
    create_qp0(pf);
    // Every attributed DMA the device issues is policed by the
    // PF-programmed window table; a violation quarantines the fn.
    dma_.set_window_table(&dma_windows_);
    dma_.set_violation_hook(
        [this](pcie::FunctionId fn, pcie::HostAddr addr,
               std::uint64_t size) { note_dma_violation(fn, addr, size); });
    slo_.set_breach_hook(
        [this](const obs::SloBreach &breach) { on_slo_breach(breach); });
}

Controller::~Controller()
{
    // Postmortem hook for CI: when NESC_OBS_DUMP_DIR is set, leave an
    // observability dump behind so a failing run's metrics and flight
    // postmortems survive as artifacts. File names carry the pid and a
    // process-wide sequence so parallel tests never collide.
    const char *dir = std::getenv("NESC_OBS_DUMP_DIR");
    if (dir == nullptr || dir[0] == '\0')
        return;
    static std::atomic<std::uint64_t> seq{0};
    const std::uint64_t n = seq.fetch_add(1, std::memory_order_relaxed);
    char path[512];
    std::snprintf(path, sizeof(path), "%s/nesc_obs_%ld_%llu.json", dir,
                  static_cast<long>(::getpid()),
                  static_cast<unsigned long long>(n));
    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr)
        return;
    const std::string metrics = metrics_.to_json();
    const std::string postmortems = flight_.postmortem_json();
    std::fprintf(f, "{\n\"metrics\": %s,\n\"postmortems\": %s\n}\n",
                 metrics.c_str(), postmortems.c_str());
    std::fclose(f);
}

util::Status
Controller::attach_replicas(repl::ReplicaSet *replicas)
{
    if (!quiescent())
        return util::failed_precondition_error(
            "media swap with transfers in flight");
    if (replicas_ != nullptr && replicas_ != replicas)
        replicas_->set_demotion_hook(nullptr);
    replicas_ = replicas;
    media_ = replicas != nullptr ? static_cast<storage::Media *>(replicas)
                                 : &local_media_;
    media_spans_ = replicas != nullptr;
    repl_backend_select_ = 0;
    if (replicas_ != nullptr) {
        metrics_.bump("repl_attached");
        // A demoted backend is fleet-affecting: freeze the PF's recent
        // lifecycle history for postmortem analysis.
        replicas_->set_demotion_hook([this](std::size_t backend) {
            flight_.snapshot(pcie::kPhysicalFunctionId,
                             obs::PostmortemReason::kReplicaDemotion,
                             simulator_.now(), backend);
        });
    }
    return util::Status::ok();
}

util::Status
Controller::attach_integrity(storage::IntegrityMap *map)
{
    if (!quiescent())
        return util::failed_precondition_error(
            "sidecar swap with transfers in flight");
    integrity_ = map;
    integrity_enabled_ = map != nullptr;
    integrity_reread_limit_ = 1;
    // A scrub pass over a detached (or different) map is meaningless.
    scrub_running_ = false;
    ++scrub_epoch_;
    FunctionContext &pf = contexts_[pcie::kPhysicalFunctionId];
    if (map != nullptr) {
        // The sidecar lives past the data region on the same media; a
        // guest (nestfs included) must never be able to address it.
        pf.device_size_blocks =
            std::min<std::uint64_t>(pf.device_size_blocks,
                                    map->data_blocks());
        metrics_.bump("integrity_attached");
    } else {
        pf.device_size_blocks = device_.geometry().num_blocks();
    }
    return util::Status::ok();
}

storage::MediaOp
Controller::media_op(extent::Plba plba) const
{
    const bool checked = integrity_ != nullptr && integrity_enabled_ &&
                         integrity_->covers(plba);
    return {checked ? integrity_ : nullptr};
}

void
Controller::note_checksum_mismatch(pcie::FunctionId fn, const BlockOp &op)
{
    ++integrity_mismatches_;
    ++ctx(fn).stats.checksum_errors;
    metrics_.bump("checksum_mismatches");
    tracer_.instant(obs::Stage::kChecksum, fn, simulator_.now(), op.tag,
                    op.vlba);
    flight_.record(fn, obs::FlightEventType::kFault, simulator_.now(),
                   static_cast<std::uint32_t>(op.tag), op.vlba,
                   static_cast<std::uint32_t>(
                       obs::PostmortemReason::kChecksumError));
    flight_.snapshot(fn, obs::PostmortemReason::kChecksumError,
                     simulator_.now());
}

bool
Controller::is_active(pcie::FunctionId fn) const
{
    return fn < contexts_.size() && contexts_[fn].active;
}

const FunctionStats &
Controller::stats(pcie::FunctionId fn) const
{
    return contexts_.at(fn).stats;
}

FaultKind
Controller::fault_kind(pcie::FunctionId fn) const
{
    return contexts_.at(fn).fault;
}

bool
Controller::quarantined(pcie::FunctionId fn) const
{
    return contexts_.at(fn).quarantined;
}

QuarantineCause
Controller::quarantine_cause(pcie::FunctionId fn) const
{
    return contexts_.at(fn).quarantine_cause;
}

bool
Controller::quiescent() const
{
    if (!vlba_queue_.empty() || !plba_queue_.empty() || active_walks_ ||
        inflight_transfers_)
        return false;
    for (pcie::FunctionId fn = 0; fn < contexts_.size(); ++fn)
        if (!function_quiescent(fn))
            return false;
    return true;
}

// --------------------------------------------------------------------
// Queue-pair lifecycle
// --------------------------------------------------------------------

Controller::Qp *
Controller::qp(FunctionContext &c, std::uint32_t qid)
{
    return qid < c.qps.size() ? qp_arena_.get(c.qps[qid]) : nullptr;
}

const Controller::Qp *
Controller::qp(const FunctionContext &c, std::uint32_t qid) const
{
    return qid < c.qps.size() ? qp_arena_.get(c.qps[qid]) : nullptr;
}

void
Controller::create_qp0(FunctionContext &c)
{
    const QpRef ref = qp_arena_.acquire();
    qp_arena_.get(ref)->reset(0);
    c.qps.assign(1, ref);
}

std::uint32_t
Controller::queue_pair_count(pcie::FunctionId fn) const
{
    const FunctionContext &c = contexts_.at(fn);
    std::uint32_t live = 0;
    for (const QpRef &qref : c.qps)
        if (qp_arena_.get(qref) != nullptr)
            ++live;
    return live;
}

const QueuePairStats *
Controller::queue_pair_stats(pcie::FunctionId fn, std::uint32_t qid) const
{
    if (fn >= contexts_.size())
        return nullptr;
    const Qp *q = qp(contexts_[fn], qid);
    return q != nullptr ? &q->stats : nullptr;
}

std::uint32_t
Controller::qp_admin_execute(pcie::FunctionId fn, QpCommand cmd)
{
    const auto ok = static_cast<std::uint32_t>(MgmtStatus::kOk);
    const auto err = static_cast<std::uint32_t>(MgmtStatus::kError);
    FunctionContext &c = ctx(fn);
    if (!c.active || c.quarantined)
        return err;
    const std::uint32_t qid = c.qp_select;
    switch (cmd) {
      case QpCommand::kCreate: {
        // Pair 0 is owned by the legacy alias registers and exists for
        // the function's whole active life; only FLR re-creates it.
        if (qid == 0 || qid >= kMaxQueuePairs)
            return err;
        if (qp(c, qid) != nullptr)
            return err;
        if (queue_pair_count(fn) >= c.qp_quota)
            return err;
        if (c.qp_sq_latch == pcie::kNullHostAddr ||
            c.qp_cq_latch == pcie::kNullHostAddr)
            return err;
        if (c.qps.size() <= qid)
            c.qps.resize(qid + 1); // gap slots hold stale handles
        const QpRef ref = qp_arena_.acquire();
        Qp *q = qp_arena_.get(ref);
        q->reset(static_cast<std::uint16_t>(qid));
        q->sq_base = c.qp_sq_latch;
        q->cq_base = c.qp_cq_latch;
        q->irq_vector = c.qp_irq_latch;
        c.qps[qid] = ref;
        metrics_.bump("qps_created");
        return ok;
      }
      case QpCommand::kDelete:
        if (qid == 0 || qp(c, qid) == nullptr)
            return err;
        destroy_qp(fn, qid);
        metrics_.bump("qps_deleted");
        return ok;
    }
    return err;
}

void
Controller::destroy_qp(pcie::FunctionId fn, std::uint32_t qid)
{
    FunctionContext &c = ctx(fn);
    Qp *q = qp(c, qid);
    if (q == nullptr)
        return;
    // Ops still staged on the pair die with it.
    c.queued_ops -= q->staging.size();
    // Every command that arrived on this pair aborts: queued copies
    // are purged everywhere, blocks already in the transfer stage drop
    // on the stale command handle, and the completions die with the
    // queue (the driver chose to delete it live). Tag order keeps the
    // teardown deterministic.
    std::vector<std::uint64_t> tags;
    for (const auto &[tag, cref] : c.pending)
        if (cmd_arena_.get(cref)->qid == qid)
            tags.push_back(tag);
    std::sort(tags.begin(), tags.end());
    for (std::uint64_t tag : tags) {
        c.stalled_ops.erase_if(
            [tag](const BlockOp &op) { return op.tag == tag; });
        purge_shared_queues(fn, tag);
        cmd_arena_.release(c.pending.find(tag)->second);
        c.pending.erase(tag);
        tracer_.instant(obs::Stage::kAbort, fn, simulator_.now(), tag);
    }
    if (!tags.empty()) {
        c.stats.aborted_ops += tags.size();
        metrics_.bump("aborted_ops", tags.size());
    }
    qp_arena_.release(c.qps[qid]);
    update_arb_eligibility(fn);
}

void
Controller::reset_queue_pairs(FunctionContext &c)
{
    // FLR already tore down the function's in-flight state; here every
    // pair stops existing and pair 0 comes back at reset (rings
    // detached, bases null, shadow invalid) for re-programming. Its new
    // handle strands completion posts and MSI timers aimed at the old
    // pair 0, so they drop instead of landing on the re-created rings.
    for (const QpRef &qref : c.qps)
        qp_arena_.release(qref); // idempotent on stale handles
    create_qp0(c);
}

util::Status
Controller::doorbell_write(pcie::FunctionId fn, std::uint32_t qid)
{
    FunctionContext &c = ctx(fn);
    if (!c.active)
        return util::failed_precondition_error("doorbell on inactive fn");
    if (c.quarantined) {
        // Posted write into a sealed function: dropped, counted.
        ++c.stats.doorbells_ignored;
        metrics_.bump("doorbells_ignored");
        return util::Status::ok();
    }
    Qp *q = qp(c, qid);
    if (q == nullptr) {
        // Doorbell to a pair that does not exist: hardware would
        // master-abort the posted write; here it is dropped and
        // counted where the hypervisor can see it.
        ++c.stats.dead_doorbells;
        metrics_.bump("dead_doorbells");
        return util::Status::ok();
    }
    ++q->stats.doorbells;
    flight_.record(fn, obs::FlightEventType::kDoorbell, simulator_.now(),
                   0, 0, qid);
    if (q->fetch_in_progress) {
        // Remember that more work arrived while a fetch was busy.
        q->doorbell_rearm = true;
        return util::Status::ok();
    }
    tracer_.instant(obs::Stage::kDoorbell, fn, simulator_.now());
    q->fetch_in_progress = true;
    simulator_.schedule_in(kDoorbellLatency, [this, fn, ref = c.qps[qid]]() {
        fetch_commands(fn, ref);
    });
    return util::Status::ok();
}

// --------------------------------------------------------------------
// Register interface
// --------------------------------------------------------------------

util::Result<std::uint64_t>
Controller::mmio_read(pcie::FunctionId fn, std::uint64_t offset, unsigned)
{
    if (fn >= contexts_.size())
        return util::out_of_range_error("no such function");
    const reg::RegisterInfo *r = reg::find_register(offset);
    if (r == nullptr || r->read == reg::Access::kNone)
        return util::invalid_argument_error("unknown register read at " +
                                            std::to_string(offset));
    if (r->read == reg::Access::kPf && fn != pcie::kPhysicalFunctionId)
        return util::permission_denied_error("register is PF-only");
    if (!block_attached(r->gate))
        return kAllOnes;
    return (this->*r->get.call)(fn);
}

util::Status
Controller::mmio_write(pcie::FunctionId fn, std::uint64_t offset,
                       std::uint64_t value, unsigned)
{
    if (fn >= contexts_.size())
        return util::out_of_range_error("no such function");

    // Per-queue doorbell aperture: qid q rings at kQpDoorbell0 + 8*q
    // (pair 0 also answers at the legacy kDoorbell register).
    if (offset >= reg::kQpDoorbell0 &&
        offset < reg::kQpDoorbell0 + 8ull * kMaxQueuePairs)
        return doorbell_write(fn, static_cast<std::uint32_t>(
                                      (offset - reg::kQpDoorbell0) / 8));

    const reg::RegisterInfo *r = reg::find_register(offset);
    if (r == nullptr || r->write == reg::Access::kNone)
        return util::invalid_argument_error("unknown register write at " +
                                            std::to_string(offset));
    if (r->write == reg::Access::kPf && fn != pcie::kPhysicalFunctionId) {
        // One choke point for the whole privileged surface: hostile
        // guests probe it, so the rejection is also counted where the
        // hypervisor can see it.
        ++ctx(fn).stats.reg_violations;
        metrics_.bump("reg_violations");
        return util::permission_denied_error("register is PF-only");
    }
    if (!block_attached(r->gate))
        return util::Status::ok(); // master-abort: the write is dropped
    return (this->*r->set.call)(fn, value);
}

// --------------------------------------------------------------------
// Register handlers (the named bindings of register_table.h)
// --------------------------------------------------------------------

void
Controller::set_qp_field(Qp &q, pcie::HostAddr Qp::*base,
                         std::uint64_t value)
{
    q.*base = value;
    if (base == &Qp::sq_base) {
        q.sq.reset();
        q.sq_shadow_valid = false;
    } else {
        q.cq.reset();
    }
}

util::Status
Controller::write_watchdog(pcie::FunctionId fn, std::uint64_t value)
{
    // The register field is kWatchdogNsBits wide: a guest writing an
    // absurd timeout gets it truncated like hardware would, instead of
    // arming a timer centuries out (which would let one function
    // fast-forward — or, by wrapping the 64-bit clock, livelock — the
    // device's shared timebase).
    ctx(fn).watchdog_ns =
        value & ((std::uint64_t{1} << reg::kWatchdogNsBits) - 1);
    arm_watchdog(fn);
    return util::Status::ok();
}

std::uint64_t
Controller::read_btlb_geometry(pcie::FunctionId)
{
    return encode_btlb_geometry(
        btlb_.fully_associative() ? 0 : btlb_.sets(),
        btlb_.fully_associative() ? btlb_.capacity() : btlb_.ways(),
        btlb_.range_shift());
}

util::Status
Controller::write_btlb_geometry(pcie::FunctionId, std::uint64_t value)
{
    BtlbConfig geometry;
    geometry.sets = static_cast<std::uint32_t>(value & 0xffff);
    const auto ways = static_cast<std::uint32_t>((value >> 16) & 0xffff);
    geometry.entries = geometry.sets <= 1 ? ways : geometry.sets * ways;
    geometry.range_shift = static_cast<std::uint32_t>((value >> 32) & 0xff);
    btlb_.configure(geometry); // flushes every entry
    metrics_.bump("btlb_reconfigs");
    return util::Status::ok();
}

std::uint64_t
Controller::read_telemetry_value(pcie::FunctionId)
{
    const std::uint32_t sel_fn = telemetry_select_ & 0xffff;
    const std::uint32_t index = telemetry_select_ >> 16;
    if (sel_fn >= contexts_.size() || index >= kTelemetryCounters.size())
        return kAllOnes;
    return contexts_[sel_fn].stats.*(kTelemetryCounters[index].field);
}

util::Status
Controller::write_arb_mode(pcie::FunctionId, std::uint64_t value)
{
    arb_mode_ = value != 0 ? ArbMode::kDwrr : ArbMode::kLegacyWrr;
    // A mode switch restarts arbitration accounting from scratch: no
    // turn in progress, no banked credit or deficit anywhere.
    rr_credit_ = 0;
    dwrr_turn_live_ = false;
    for (FunctionContext &f : contexts_)
        f.arb_deficit = 0;
    return util::Status::ok();
}

util::Status
Controller::write_obs_window(pcie::FunctionId, std::uint64_t value)
{
    obs_window_ns_ = static_cast<sim::Duration>(value);
    const std::uint64_t epoch = ++obs_window_epoch_;
    if (obs_window_ns_ != 0) {
        // Accounting survives pacing changes; only a fresh enable
        // starts both windows empty at the current time.
        if (!slo_.enabled())
            slo_.enable(num_functions(), simulator_.now());
        // Weak: an always-on rotation timer must never keep an
        // otherwise-drained simulation spinning.
        simulator_.schedule_weak_in(
            std::max<sim::Duration>(1, obs_window_ns_),
            [this, epoch]() { obs_window_tick(epoch); });
    }
    return util::Status::ok();
}

util::Status
Controller::write_sampler_interval(pcie::FunctionId, std::uint64_t value)
{
    sampler_interval_ = static_cast<sim::Duration>(value);
    const std::uint64_t epoch = ++sampler_epoch_;
    if (sampler_interval_ != 0) {
        // Baseline sample at arm time, then one per interval.
        sampler_.sample(simulator_.now());
        simulator_.schedule_weak_in(
            std::max<sim::Duration>(1, sampler_interval_),
            [this, epoch]() { sampler_tick(epoch); });
    }
    return util::Status::ok();
}

bool
Controller::block_attached(reg::Gate gate) const
{
    switch (gate) {
      case reg::Gate::kReplicas: return replicas_ != nullptr;
      case reg::Gate::kIntegrity: return integrity_ != nullptr;
      default: return true;
    }
}

namespace {

/** Management commands that operate on the VF named by kMgmtVfId. */
constexpr bool
targets_vf(MgmtCommand command)
{
    switch (command) {
      case MgmtCommand::kCreateVf:
      case MgmtCommand::kDeleteVf:
      case MgmtCommand::kFailMiss:
      case MgmtCommand::kSetQosWeight:
      case MgmtCommand::kSetExtentRoot:
      case MgmtCommand::kAddDmaWindow:
      case MgmtCommand::kClearDmaWindows:
      case MgmtCommand::kReleaseQuarantine:
      case MgmtCommand::kSetQpQuota:
      case MgmtCommand::kSetRateLimit:
      case MgmtCommand::kSetSlo:
        return true;
      default:
        return false;
    }
}

} // namespace

std::uint32_t
Controller::mgmt_execute(MgmtCommand command)
{
    const auto ok = static_cast<std::uint32_t>(MgmtStatus::kOk);
    const auto err = static_cast<std::uint32_t>(MgmtStatus::kError);
    const auto fn = static_cast<pcie::FunctionId>(mgmt_vf_id_);
    if (targets_vf(command)) {
        // The target must name a VF slot: a free one for kCreateVf, a
        // live one for everything else.
        if (mgmt_vf_id_ == 0 || mgmt_vf_id_ > config_.max_vfs ||
            ctx(fn).active == (command == MgmtCommand::kCreateVf))
            return err;
    }
    switch (command) {
      case MgmtCommand::kCreateVf: {
        FunctionContext &c = ctx(fn);
        c = FunctionContext{};
        c.active = true;
        c.extent_tree_root = mgmt_extent_root_;
        c.device_size_blocks = mgmt_device_size_;
        active_vfs_.insert(std::lower_bound(active_vfs_.begin(),
                                            active_vfs_.end(), fn),
                           fn);
        // A fresh VF never inherits the previous occupant's windows.
        dma_windows_.clear(fn);
        create_qp0(c);
        metrics_.bump("vfs_created");
        return ok;
      }
      case MgmtCommand::kDeleteVf: {
        FunctionContext &c = ctx(fn);
        // Refuse to delete a non-quiescent VF: beyond its own queues,
        // ops may sit in the shared vLBA/pLBA queues, in the transfer
        // stage (tracked by `pending`), or in a doorbell fetch that
        // has not landed yet — deleting then would strand commands
        // with no completion.
        if (!function_quiescent(fn))
            return err;
        std::erase(active_vfs_, fn);
        for (const QpRef &qref : c.qps)
            qp_arena_.release(qref); // pair 0 and any extras
        if (c.bucket.limited())
            --rate_limited_fns_;
        arb_eligible_.assign(fn, false);
        c = FunctionContext{};
        btlb_.flush_function(fn);
        node_cache_.invalidate_function(fn);
        dma_windows_.clear(fn);
        metrics_.bump("vfs_deleted");
        return ok;
      }
      case MgmtCommand::kFlushBtlb:
        // The PF flush covers every cached translation product: BTLB
        // extents and node images alike (dedup/defrag moved blocks).
        btlb_.flush();
        node_cache_.flush();
        metrics_.bump("btlb_pf_flushes");
        return ok;
      case MgmtCommand::kFailMiss:
        fail_stalled(fn);
        return ok;
      case MgmtCommand::kSetQosWeight:
        if (mgmt_qos_weight_ == 0)
            return err;
        ctx(fn).qos_weight = mgmt_qos_weight_;
        metrics_.bump("qos_updates");
        return ok;
      case MgmtCommand::kSetExtentRoot: {
        FunctionContext &c = ctx(fn);
        c.extent_tree_root = mgmt_extent_root_;
        // Cached translations and node images may derive from the old
        // tree, and an in-flight walk would deliver a stale result:
        // the generation bump makes such walks replay on resolution.
        ++c.tree_generation;
        btlb_.flush_function(fn);
        node_cache_.invalidate_function(fn);
        metrics_.bump("extent_root_updates");
        return ok;
      }
      case MgmtCommand::kAddDmaWindow:
        if (!dma_windows_.add(fn, dma_window_base_, dma_window_size_)
                 .is_ok())
            return err;
        metrics_.bump("dma_windows_added");
        return ok;
      case MgmtCommand::kClearDmaWindows:
        dma_windows_.clear(fn);
        return ok;
      case MgmtCommand::kReleaseQuarantine:
        if (!ctx(fn).quarantined)
            return err;
        release_quarantine(fn);
        return ok;
      case MgmtCommand::kReplDemote: {
        if (replicas_ == nullptr ||
            repl_backend_select_ >= replicas_->backend_count())
            return err;
        replicas_->demote_backend(repl_backend_select_);
        metrics_.bump("repl_demotions_forced");
        return ok;
      }
      case MgmtCommand::kReplResync: {
        if (replicas_ == nullptr ||
            repl_backend_select_ >= replicas_->backend_count() ||
            replicas_->backend_crashed(repl_backend_select_))
            return err;
        tracer_.instant(obs::Stage::kResync, pcie::kPhysicalFunctionId,
                        simulator_.now());
        replicas_->start_resync(repl_backend_select_);
        metrics_.bump("repl_resyncs_started");
        return ok;
      }
      case MgmtCommand::kSetQpQuota:
        if (mgmt_qp_quota_ == 0 || mgmt_qp_quota_ > kMaxQueuePairs)
            return err;
        // Lowering the quota below the live pair count only gates
        // future creates; existing pairs keep running until the
        // driver deletes them.
        ctx(fn).qp_quota = mgmt_qp_quota_;
        metrics_.bump("qp_quota_updates");
        return ok;
      case MgmtCommand::kSetRateLimit: {
        FunctionContext &c = ctx(fn);
        // A burst below one device block could never admit a grant;
        // clamp so a limited function always makes progress.
        std::uint64_t burst = mgmt_rate_burst_;
        if (mgmt_rate_bps_ != 0 && burst < kDeviceBlockSize)
            burst = kDeviceBlockSize;
        const bool was_limited = c.bucket.limited();
        c.bucket.configure(mgmt_rate_bps_, burst, simulator_.now());
        if (!was_limited && c.bucket.limited())
            ++rate_limited_fns_;
        else if (was_limited && !c.bucket.limited())
            --rate_limited_fns_;
        metrics_.bump("rate_limit_updates");
        return ok;
      }
      case MgmtCommand::kScrubStart:
        return scrub_start();
      case MgmtCommand::kScrubAbort:
        return scrub_abort();
      case MgmtCommand::kSetSlo:
        // Thresholds are free to be staged before accounting starts;
        // they only bite at window rotation while kObsWindowNs != 0.
        if (!slo_.enabled())
            slo_.enable(num_functions(), simulator_.now());
        slo_.set_limits(fn, {slo_max_p99_ns_, slo_max_error_ppm_});
        metrics_.bump("slo_updates");
        return ok;
      case MgmtCommand::kPostmortemClear:
        flight_.clear_postmortems();
        return ok;
      case MgmtCommand::kSloBreachClear:
        slo_.clear_breaches();
        return ok;
    }
    return err;
}

// --------------------------------------------------------------------
// Background integrity scrub
// --------------------------------------------------------------------

std::uint32_t
Controller::scrub_start()
{
    if (integrity_ == nullptr || scrub_running_)
        return static_cast<std::uint32_t>(MgmtStatus::kError);
    scrub_running_ = true;
    scrub_next_ = 0;
    scrub_progress_ = 0;
    scrub_errors_ = 0;
    const std::uint64_t epoch = ++scrub_epoch_;
    metrics_.bump("scrubs_started");
    tracer_.instant(obs::Stage::kScrub, pcie::kPhysicalFunctionId,
                    simulator_.now());
    simulator_.schedule_in(std::max<sim::Duration>(1, scrub_interval_),
                           [this, epoch]() { scrub_tick(epoch); });
    return static_cast<std::uint32_t>(MgmtStatus::kOk);
}

std::uint32_t
Controller::scrub_abort()
{
    if (!scrub_running_)
        return static_cast<std::uint32_t>(MgmtStatus::kError);
    scrub_running_ = false;
    ++scrub_epoch_; // scheduled ticks die on the epoch check
    metrics_.bump("scrubs_aborted");
    return static_cast<std::uint32_t>(MgmtStatus::kOk);
}

void
Controller::scrub_tick(std::uint64_t epoch)
{
    if (epoch != scrub_epoch_ || !scrub_running_ || integrity_ == nullptr)
        return;
    const sim::Time t_batch = simulator_.now();
    const std::uint64_t limit =
        std::min(integrity_->data_blocks(), scrub_next_ + scrub_batch_);
    while (scrub_next_ < limit) {
        scrub_block(scrub_next_);
        ++scrub_next_;
        ++scrub_progress_;
    }
    tracer_.span(obs::Stage::kScrub, pcie::kPhysicalFunctionId, t_batch,
                 simulator_.now(), scrub_next_);
    if (scrub_next_ >= integrity_->data_blocks()) {
        scrub_running_ = false;
        metrics_.bump("scrubs_completed");
        return;
    }
    // Rate limiting: the pause between batches is what keeps a scrub
    // from starving foreground I/O of media bandwidth.
    simulator_.schedule_in(std::max<sim::Duration>(1, scrub_interval_),
                           [this, epoch]() { scrub_tick(epoch); });
}

// --------------------------------------------------------------------
// Always-on telemetry plane timers and breach handling
// --------------------------------------------------------------------

void
Controller::obs_window_tick(std::uint64_t epoch)
{
    // A reprogrammed window length (or a disable) bumps the epoch, so
    // the stale tick dies here instead of rotating at the old pace.
    if (epoch != obs_window_epoch_ || obs_window_ns_ == 0)
        return;
    slo_.rotate(simulator_.now());
    simulator_.schedule_weak_in(std::max<sim::Duration>(1, obs_window_ns_),
                                [this, epoch]() { obs_window_tick(epoch); });
}

void
Controller::sampler_tick(std::uint64_t epoch)
{
    if (epoch != sampler_epoch_ || sampler_interval_ == 0)
        return;
    sampler_.sample(simulator_.now());
    simulator_.schedule_weak_in(
        std::max<sim::Duration>(1, sampler_interval_),
        [this, epoch]() { sampler_tick(epoch); });
}

void
Controller::on_slo_breach(const obs::SloBreach &breach)
{
    ++ctx(breach.fn).stats.slo_breaches;
    metrics_.bump("slo_breaches");
    // Rate limiting is structural: SloWatch evaluates only at window
    // rotation, so a function raises at most one event per metric per
    // window no matter how many ops violated the threshold inside it.
    tracer_.instant(obs::Stage::kSloBreach, breach.fn, simulator_.now(),
                    static_cast<std::uint64_t>(breach.metric),
                    breach.observed);
    NESC_LOG_WARN(
        "fn %u: SLO breach: %s observed %llu threshold %llu (window @%llu)",
        breach.fn, obs::slo_metric_name(breach.metric),
        static_cast<unsigned long long>(breach.observed),
        static_cast<unsigned long long>(breach.threshold),
        static_cast<unsigned long long>(breach.window_start));
}

void
Controller::scrub_block(std::uint64_t plba)
{
    if (!integrity_->covers(plba))
        return;
    // Judge every backend's copy on its own: routing would mask a
    // damaged copy until failover happened to land on it. A copy that
    // fails verification gets the ladder's first rung (bounded
    // re-reads clear an in-flight flip); the first verified copy
    // repairs the rest. A copy the media reports UNAVAILABLE (a down,
    // crashed or stale backend, a transient fault) is skipped: resync
    // or the next pass covers it. Any other read failure loses the
    // copy like damage does.
    std::vector<std::byte> buf(kDeviceBlockSize);
    std::vector<std::byte> good;
    std::vector<std::size_t> bad;
    for (std::size_t i = 0; i < media_->backend_count(); ++i) {
        const util::Status status = media_->scrub_read(i, plba, buf);
        if (status.code() == util::ErrorCode::kUnavailable)
            continue;
        bool verified = status.is_ok() && integrity_->verify(plba, buf);
        if (status.is_ok() && !verified) {
            ++integrity_mismatches_;
            metrics_.bump("checksum_mismatches");
            for (std::uint32_t r = 0; r < integrity_reread_limit_ && !verified;
                 ++r) {
                metrics_.bump("checksum_rereads");
                verified = media_->scrub_read(i, plba, buf).is_ok() &&
                           integrity_->verify(plba, buf);
            }
        }
        if (!verified)
            bad.push_back(i);
        else if (good.empty())
            good = buf;
    }
    bool whole = true;
    for (std::size_t i : bad) {
        if (!good.empty() && media_->repair_blocks(i, plba, good).is_ok()) {
            ++integrity_repairs_;
            metrics_.bump("checksum_repairs");
        } else {
            whole = false;
        }
    }
    if (!whole) {
        // No verified copy to repair from (a one-backend media never
        // has one), or the repair itself failed.
        ++scrub_errors_;
        metrics_.bump("scrub_uncorrectable");
    }
}

// --------------------------------------------------------------------
// Command fetch & arbitration
// --------------------------------------------------------------------

void
Controller::fetch_commands(pcie::FunctionId fn, QpRef ref)
{
    FunctionContext &c = ctx(fn);
    Qp *q = qp_arena_.get(ref);
    if (q == nullptr)
        return; // the pair was deleted or reset while the fetch was queued
    q->fetch_in_progress = false;
    if (!c.active || c.quarantined)
        return;
    if (!q->sq) {
        auto ring = pcie::HostRing::attach(host_memory_, q->sq_base);
        if (!ring.is_ok()) {
            NESC_LOG_WARN("fn %u: doorbell with no command ring", fn);
            note_validation_fault(fn, QuarantineCause::kRingCorrupt);
            return;
        }
        pcie::HostRing attached = std::move(ring).value();
        if (attached.record_size() != sizeof(CommandRecord) ||
            attached.capacity() == 0 ||
            attached.capacity() > kMaxRingCapacity) {
            NESC_LOG_WARN("fn %u: command ring shape rejected", fn);
            note_validation_fault(fn, QuarantineCause::kRingCorrupt);
            return;
        }
        // The ring itself is a device-DMA target: a confined guest's
        // ring must sit inside its windows like any other buffer.
        if (!dma_
                 .check_window(fn, attached.base(),
                               pcie::HostRing::footprint(
                                   attached.capacity(),
                                   attached.record_size()))
                 .is_ok())
            return; // the violation hook has quarantined the fn
        q->sq = std::move(attached);
        q->sq_shadow_valid = false;
    }

    // Header sanity plus shadow-counter cross-check before trusting a
    // single record: the header lives in guest-writable memory, so it
    // is evidence of driver intent, never authority over device state.
    if (util::Status ring_ok = validate_cmd_ring(*q); !ring_ok.is_ok()) {
        NESC_LOG_WARN("fn %u: command ring rejected: %s", fn,
                      ring_ok.message().c_str());
        note_validation_fault(fn, QuarantineCause::kRingCorrupt);
        return;
    }

    // Drain the whole ring; descriptor DMA is booked per record.
    std::array<std::byte, sizeof(CommandRecord)> rec_buf;
    std::uint64_t fetched = 0;
    for (;;) {
        auto popped = q->sq->pop(rec_buf);
        if (!popped.is_ok()) {
            // The header went bad between records (torn mid-drain).
            note_validation_fault(fn, QuarantineCause::kRingCorrupt);
            break;
        }
        if (!popped.value())
            break;
        ++q->sq_shadow_head; // mirror our own consumer advance
        dma_.book(sizeof(CommandRecord));
        CommandRecord rec;
        std::memcpy(&rec, rec_buf.data(), sizeof(rec));
        ++fetched;
        ++c.stats.commands;
        ++q->stats.commands;
        tracer_.instant(obs::Stage::kCmdFetch, fn, simulator_.now(),
                        rec.tag, rec.nblocks);
        flight_.record(fn, obs::FlightEventType::kFetch, simulator_.now(),
                       static_cast<std::uint32_t>(rec.tag), rec.vlba,
                       rec.opcode);

        const std::uint16_t q16 = q->qid;
        // Completes the command at fetch, before any block op exists.
        auto complete_at_fetch = [&](CompletionStatus status) {
            complete_block({fn, static_cast<Opcode>(rec.opcode), 0, 0, rec.tag,
                            q16, open_command(c, rec.tag, 1, 0, q16)},
                           status);
        };
        if (util::Status valid = validate_command(c, rec);
            !valid.is_ok()) {
            ++c.stats.malformed;
            metrics_.bump("malformed_commands");
            tracer_.instant(obs::Stage::kValidateFail, fn,
                            simulator_.now(), rec.tag);
            // Name the rejected descriptor in the flight ring so a
            // postmortem identifies the faulting command by tag.
            flight_.record(fn, obs::FlightEventType::kFault,
                           simulator_.now(),
                           static_cast<std::uint32_t>(rec.tag), rec.vlba,
                           static_cast<std::uint32_t>(
                               CompletionStatus::kMalformed));
            complete_at_fetch(CompletionStatus::kMalformed);
            note_validation_fault(fn, QuarantineCause::kMalformedStorm);
            if (c.quarantined)
                break; // the fault storm tipped over mid-drain
            continue;
        }

        const auto opcode = static_cast<Opcode>(rec.opcode);
        if (opcode == Opcode::kFlush) {
            // Durability barrier: the in-memory media model is always
            // durable, so a flush completes as soon as it is seen.
            complete_at_fetch(CompletionStatus::kOk);
            continue;
        }
        if (rec.vlba >= c.device_size_blocks) {
            // Entirely out of range: reject at fetch instead of
            // expanding nblocks block ops that would each bounce off
            // the same bound in translation.
            complete_at_fetch(CompletionStatus::kOutOfRange);
            continue;
        }
        // Check the data buffer against the DMA windows now, so a
        // confined guest pointing a descriptor out of its sandbox gets
        // a precise kDmaFault (then quarantine) before the device
        // touches anything.
        const std::uint64_t buffer_len =
            static_cast<std::uint64_t>(rec.nblocks) * kDeviceBlockSize;
        if (!dma_windows_.check(fn, rec.host_buffer, buffer_len)
                 .is_ok()) {
            ++c.stats.dma_violations;
            metrics_.bump("dma_violations");
            flight_.record(fn, obs::FlightEventType::kFault,
                           simulator_.now(),
                           static_cast<std::uint32_t>(rec.tag), rec.vlba,
                           static_cast<std::uint32_t>(
                               CompletionStatus::kDmaFault));
            complete_at_fetch(CompletionStatus::kDmaFault);
            quarantine(fn, QuarantineCause::kDmaViolation);
            break;
        }

        // Split into 1 KiB device-block operations (paper §IV.C).
        const CmdRef cmd = open_command(c, rec.tag, rec.nblocks,
                                        simulator_.now(), q16);
        for (std::uint32_t b = 0; b < rec.nblocks; ++b) {
            BlockOp op{fn, opcode, rec.vlba + b,
                       rec.host_buffer +
                           static_cast<pcie::HostAddr>(b) *
                               kDeviceBlockSize,
                       rec.tag, q16, cmd};
            op.t_queued = simulator_.now();
            q->staging.push_back(op);
            ++c.queued_ops;
        }
    }
    metrics_.add(h_commands_fetched_, fetched);
    if (c.quarantined) {
        pump(); // other functions' work continues; this one is sealed
        return;
    }
    arm_watchdog(fn);
    if (q->doorbell_rearm) {
        q->doorbell_rearm = false;
        q->fetch_in_progress = true;
        simulator_.schedule_in(kDoorbellLatency,
                               [this, fn, ref]() { fetch_commands(fn, ref); });
    }
    update_arb_eligibility(fn);
    pump();
}

// --------------------------------------------------------------------
// Untrusted-guest containment
// --------------------------------------------------------------------

util::Status
Controller::validate_cmd_ring(Qp &q)
{
    NESC_ASSIGN_OR_RETURN(auto header, q.sq->load_header());
    if (!q.sq_shadow_valid) {
        // First sight of this ring: adopt its counters as the baseline.
        q.sq_shadow_head = header.head;
        q.sq_shadow_tail = header.tail;
        q.sq_shadow_valid = true;
    }
    // head is the device's counter; the producer never writes it.
    if (header.head != q.sq_shadow_head)
        return util::data_loss_error("ring consumer counter rewritten");
    // tail may only advance. With free-running 32-bit counters a
    // backward step shows up as a wrapping advance in the top half of
    // the range, which no real producer can reach between doorbells.
    const std::uint32_t advance = header.tail - q.sq_shadow_tail;
    if (advance > 0x7fffffffu)
        return util::data_loss_error("ring producer counter regressed");
    q.sq_shadow_tail = header.tail;
    return util::Status::ok();
}

util::Status
Controller::validate_command(const FunctionContext &c,
                             const CommandRecord &rec) const
{
    const auto opcode = static_cast<Opcode>(rec.opcode);
    if (opcode != Opcode::kRead && opcode != Opcode::kWrite &&
        opcode != Opcode::kFlush)
        return util::invalid_argument_error("unknown opcode");
    if (opcode == Opcode::kFlush)
        return util::Status::ok(); // carries no range or buffer
    if (rec.nblocks == 0)
        return util::invalid_argument_error("zero-length command");
    if (rec.nblocks > kMaxCommandBlocks)
        return util::invalid_argument_error("nblocks beyond device limit");
    if (rec.vlba + rec.nblocks < rec.vlba)
        return util::invalid_argument_error("vLBA range wraps");
    if (rec.host_buffer == pcie::kNullHostAddr)
        return util::invalid_argument_error("null data buffer");
    if (rec.host_buffer % 4 != 0)
        return util::invalid_argument_error("misaligned data buffer");
    const std::uint64_t len =
        static_cast<std::uint64_t>(rec.nblocks) * kDeviceBlockSize;
    if (rec.host_buffer + len < rec.host_buffer)
        return util::invalid_argument_error("buffer range wraps");
    (void)c;
    return util::Status::ok();
}

void
Controller::note_validation_fault(pcie::FunctionId fn,
                                  QuarantineCause cause)
{
    FunctionContext &c = ctx(fn);
    if (cause == QuarantineCause::kRingCorrupt) {
        ++c.stats.ring_corruptions;
        metrics_.bump("ring_corruptions");
    }
    // The PF is trusted infrastructure; misprogramming it is a
    // hypervisor bug, not guest hostility.
    if (fn == pcie::kPhysicalFunctionId || c.quarantined)
        return;
    const sim::Time now = simulator_.now();
    c.recent_validation_faults.push_back(now);
    while (!c.recent_validation_faults.empty() &&
           c.recent_validation_faults.front() + quarantine_window_ < now)
        c.recent_validation_faults.pop_front();
    if (quarantine_threshold_ != 0 &&
        c.recent_validation_faults.size() >= quarantine_threshold_)
        quarantine(fn, cause);
}

void
Controller::note_dma_violation(pcie::FunctionId fn, pcie::HostAddr addr,
                               std::uint64_t size)
{
    if (fn >= contexts_.size() || fn == pcie::kPhysicalFunctionId)
        return;
    FunctionContext &c = ctx(fn);
    ++c.stats.dma_violations;
    metrics_.bump("dma_violations");
    NESC_LOG_WARN("fn %u: DMA window violation at %llu+%llu", fn,
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(size));
    // No storm counting for a sandbox escape attempt: one strike.
    quarantine(fn, QuarantineCause::kDmaViolation);
}

void
Controller::quarantine(pcie::FunctionId fn, QuarantineCause cause)
{
    if (fn == pcie::kPhysicalFunctionId)
        return;
    FunctionContext &c = ctx(fn);
    if (c.quarantined)
        return;
    c.quarantined = true;
    c.quarantine_cause = cause;
    ++c.stats.quarantines;
    metrics_.bump("quarantines");
    tracer_.instant(obs::Stage::kQuarantine, fn, simulator_.now(), 0,
                    static_cast<std::uint64_t>(cause));
    // Freeze the recent lifecycle history before the purge below
    // destroys the in-flight evidence of what went wrong.
    flight_.snapshot(fn, obs::PostmortemReason::kQuarantine,
                     simulator_.now(), static_cast<std::uint64_t>(cause));
    // Tear down everything in flight, scoped exactly to this fn.
    purge_shared_queues(fn, std::nullopt);
    for (const QpRef &qref : c.qps) {
        if (Qp *q = qp_arena_.get(qref); q != nullptr) {
            q->staging.clear();
            q->doorbell_rearm = false;
        }
    }
    c.queued_ops = 0;
    c.stalled_ops.clear();
    c.fault = FaultKind::kNone;
    c.miss_address = 0;
    c.miss_size = 0;
    // Results derived from the pre-quarantine state must not land:
    // the generation bump cancels in-flight walks, and any transfer
    // completion drops on the pending-map miss below.
    ++c.tree_generation;
    btlb_.flush_function(fn);
    node_cache_.invalidate_function(fn);
    // In-flight commands complete kAborted toward the guest, in tag
    // order for determinism (pending is an unordered map). Each
    // completion posts to the pair its command arrived on.
    std::vector<std::pair<std::uint64_t, std::uint16_t>> tags;
    tags.reserve(c.pending.size());
    for (const auto &[tag, cmd] : c.pending) {
        tags.emplace_back(tag, cmd_arena_.get(cmd)->qid);
        cmd_arena_.release(cmd);
    }
    std::sort(tags.begin(), tags.end());
    c.pending.clear();
    c.stats.aborted_ops += tags.size();
    metrics_.bump("aborted_ops", tags.size());
    for (const auto &[tag, qid] : tags)
        enqueue_completion(fn, qid, tag, CompletionStatus::kAborted);
    update_arb_eligibility(fn);
    // One PF notification per quarantine entry; the per-fault IRQs a
    // misbehaving guest could otherwise storm with are suppressed
    // while it stays quarantined.
    irq_.raise(kFaultVector);
    pump();
}

void
Controller::release_quarantine(pcie::FunctionId fn)
{
    FunctionContext &c = ctx(fn);
    c.quarantined = false;
    c.quarantine_cause = QuarantineCause::kNone;
    c.recent_validation_faults.clear();
    metrics_.bump("quarantine_releases");
    // The releasing FLR rebuilds the fn from scratch: rings detached
    // (the guest re-programs them), queues empty, fault state clear.
    function_level_reset(fn);
}

void
Controller::pump()
{
    arbitrate();
    start_walks();
    start_transfers();
}

void
Controller::update_arb_eligibility(pcie::FunctionId fn)
{
    if (fn == pcie::kPhysicalFunctionId)
        return; // the PF's OOB channel never arbitrates
    const FunctionContext &c = contexts_[fn];
    arb_eligible_.assign(fn, c.active && !c.quarantined &&
                                 c.fault == FaultKind::kNone &&
                                 c.queued_ops != 0);
}

int
Controller::next_eligible(std::uint32_t from)
{
    // Fast path: no rate limits anywhere, so the bitmap answer is the
    // answer (this is the only path legacy/golden configs ever take).
    if (rate_limited_fns_ == 0)
        return arb_eligible_.next_after(from);
    const sim::Time now = simulator_.now();
    sim::Time earliest = ~sim::Time{0};
    std::uint32_t cursor = from;
    for (std::size_t probes = arb_eligible_.count(); probes > 0;
         --probes) {
        const int id = arb_eligible_.next_after(cursor);
        if (id < 0)
            return -1;
        FunctionContext &c = ctx(static_cast<pcie::FunctionId>(id));
        if (c.bucket.ready(kDeviceBlockSize, now))
            return id;
        earliest = std::min(earliest,
                            c.bucket.ready_time(kDeviceBlockSize, now));
        cursor = static_cast<std::uint32_t>(id);
        if (cursor == from)
            break; // wrapped a full cycle; everything is rate-blocked
    }
    // Work exists but every backlogged function is out of tokens: a
    // one-shot wakeup at the earliest refill keeps the pipeline moving
    // without any polling traffic.
    if (earliest != ~sim::Time{0})
        schedule_rate_pump(earliest);
    return -1;
}

void
Controller::grant_one(FunctionContext &c)
{
    // Plain round robin across the tenant's pairs: resume at the
    // cursor and take the first pair with staged work. With a single
    // pair this is exactly the legacy per-function queue pop.
    const auto npairs = static_cast<std::uint32_t>(c.qps.size());
    for (std::uint32_t i = 0; i < npairs; ++i) {
        const std::uint32_t qid = (c.rr_qp_cursor + i) % npairs;
        Qp *q = qp_arena_.get(c.qps[qid]);
        if (q == nullptr || q->staging.empty())
            continue;
        q->staging.front().t_arbitrated = simulator_.now();
        vlba_queue_.push_back(q->staging.front());
        q->staging.pop_front();
        --c.queued_ops;
        c.rr_qp_cursor = (qid + 1) % npairs;
        ++arb_grants_;
        return;
    }
}

void
Controller::schedule_rate_pump(sim::Time at)
{
    if (rate_pump_scheduled_ && rate_pump_at_ <= at)
        return; // an earlier (or equal) wakeup is already booked
    rate_pump_scheduled_ = true;
    rate_pump_at_ = at;
    const sim::Time fire = std::max(at, simulator_.now());
    simulator_.schedule_at(fire, [this, at]() {
        if (rate_pump_at_ == at)
            rate_pump_scheduled_ = false;
        pump();
    });
}

void
Controller::arbitrate()
{
    // PF out-of-band channel: bypasses translation and the vLBA queue
    // entirely (paper §V.A), so PF traffic is never blocked behind a
    // stalled VF. All the PF's pairs drain, in qid order.
    FunctionContext &pf = ctx(pcie::kPhysicalFunctionId);
    if (pf.queued_ops != 0) {
        for (const QpRef &qref : pf.qps) {
            Qp *q = qp_arena_.get(qref);
            if (q == nullptr)
                continue;
            while (!q->staging.empty()) {
                BlockOp op = q->staging.front();
                q->staging.pop_front();
                --pf.queued_ops;
                if (op.vlba >= pf.device_size_blocks) {
                    complete_block(op, CompletionStatus::kOutOfRange);
                    continue;
                }
                plba_queue_.emplace_back(
                    op, static_cast<extent::Plba>(op.vlba));
                metrics_.add(h_oob_requests_);
            }
        }
    }

    if (arb_mode_ == ArbMode::kLegacyWrr) {
        // Weighted round-robin over VFs into the shared vLBA queue:
        // each backlogged VF gets qos_weight blocks per turn (weight 1
        // = the plain round robin of §V.A; higher weights implement
        // the QoS extension of §IV.D). The per-turn credit persists
        // across calls: the pipeline refills one slot at a time in
        // steady state, and the weight must survive that, not just
        // batch arrivals. The eligible bitmap replays the old sorted
        // active-list scan's cyclic id order exactly — identical
        // selection, O(words) per turn-over instead of O(active_vfs).
        while (vlba_queue_.size() < kVlbaQueueDepth) {
            if (rr_credit_ == 0 || !arb_eligible_.test(rr_current_)) {
                const int next = next_eligible(rr_current_);
                if (next < 0)
                    break; // nothing runnable (or all rate-blocked)
                rr_current_ = static_cast<pcie::FunctionId>(next);
                rr_credit_ = ctx(rr_current_).qos_weight;
            }
            FunctionContext &c = ctx(rr_current_);
            if (rate_limited_fns_ != 0 && c.bucket.limited() &&
                !c.bucket.ready(kDeviceBlockSize, simulator_.now())) {
                rr_credit_ = 0; // tokens ran out mid-turn: turn over
                continue;
            }
            grant_one(c);
            if (rate_limited_fns_ != 0)
                c.bucket.spend(kDeviceBlockSize);
            --rr_credit_;
            if (c.queued_ops == 0) {
                rr_credit_ = 0; // cannot bank credit while idle
                arb_eligible_.assign(rr_current_, false);
            }
        }
        return;
    }

    // DWRR (reg::kArbMode = 1): a tenant acquiring the turn banks
    // quantum x weight blocks of deficit and spends one per grant.
    // Unlike the legacy credit, the deficit survives vLBA-queue
    // backpressure mid-turn while the tenant stays backlogged — the
    // turn is left open (dwrr_turn_live_) and resumes on the next
    // arbitrate() call. The deficit dies with the backlog (classic
    // DRR), so an idle tenant cannot hoard service.
    while (vlba_queue_.size() < kVlbaQueueDepth) {
        if (!dwrr_turn_live_ || !arb_eligible_.test(rr_current_)) {
            const int next = next_eligible(rr_current_);
            if (next < 0) {
                dwrr_turn_live_ = false;
                break;
            }
            rr_current_ = static_cast<pcie::FunctionId>(next);
            FunctionContext &t = ctx(rr_current_);
            t.arb_deficit +=
                static_cast<std::uint64_t>(arb_quantum_) * t.qos_weight;
            dwrr_turn_live_ = true;
        }
        FunctionContext &c = ctx(rr_current_);
        if (c.arb_deficit == 0) {
            dwrr_turn_live_ = false; // quantum spent; next tenant
            continue;
        }
        if (rate_limited_fns_ != 0 && c.bucket.limited() &&
            !c.bucket.ready(kDeviceBlockSize, simulator_.now())) {
            dwrr_turn_live_ = false; // keep the deficit, yield the turn
            continue;
        }
        grant_one(c);
        if (rate_limited_fns_ != 0)
            c.bucket.spend(kDeviceBlockSize);
        --c.arb_deficit;
        if (c.queued_ops == 0) {
            c.arb_deficit = 0; // deficit dies with the backlog
            arb_eligible_.assign(rr_current_, false);
            dwrr_turn_live_ = false;
        }
    }
}

// --------------------------------------------------------------------
// Translation unit
// --------------------------------------------------------------------

void
Controller::start_walks()
{
    while (active_walks_ < config_.walk_overlap && !vlba_queue_.empty() &&
           plba_queue_.size() < kPlbaQueueDepth) {
        BlockOp op = vlba_queue_.front();
        vlba_queue_.pop_front();
        ++active_walks_;
        // The BTLB probe and pipeline bookkeeping take a fixed cost.
        simulator_.schedule_in(kTranslationCost,
                               [this, op]() { begin_translation(op); });
    }
}

void
Controller::begin_translation(BlockOp op)
{
    FunctionContext &c = ctx(op.fn);
    if (!c.active || c.quarantined) { // deleted or sealed while queued
        release_walker();
        pump();
        return;
    }
    if (c.fault != FaultKind::kNone) {
        // Another block of this VF faulted while we were queued; park.
        c.stalled_ops.push_back(op);
        release_walker();
        pump();
        return;
    }
    if (op.vlba >= c.device_size_blocks) {
        complete_block(op, CompletionStatus::kOutOfRange);
        release_walker();
        pump();
        return;
    }
    if (auto hit = btlb_.lookup(op.fn, op.vlba)) {
        metrics_.add(h_btlb_hits_);
        tracer_.instant(obs::Stage::kBtlbHit, op.fn, simulator_.now(),
                        op.tag, op.vlba);
        finish_mapped(op, *hit);
        release_walker();
        pump();
        return;
    }
    metrics_.add(h_btlb_misses_);
    if (walk_coalesce_window_ != 0 && !op.no_coalesce) {
        // MSHR attachment: a concurrent miss near an in-flight walk of
        // the same function rides that walk instead of spawning its
        // own — one set of node DMAs serves the whole burst.
        for (const WalkRef &wref : inflight_walks_) {
            Walk *walk = walk_arena_.get(wref); // live by invariant
            if (walk->op.fn != op.fn)
                continue;
            const extent::Vlba a = walk->op.vlba;
            const extent::Vlba b = op.vlba;
            if ((a > b ? a - b : b - a) > walk_coalesce_window_)
                continue;
            walk->secondaries.push_back(op);
            metrics_.add(h_walk_coalesced_);
            release_walker();
            pump();
            return;
        }
    }
    if (c.extent_tree_root == pcie::kNullHostAddr) {
        // No tree at all: treat as a fully pruned mapping.
        finish_fault(op, FaultKind::kPruned);
        release_walker();
        pump();
        return;
    }
    const WalkRef ref = walk_arena_.acquire();
    Walk *walk = walk_arena_.get(ref);
    walk->op = op;
    walk->node = c.extent_tree_root;
    walk->levels = 0;
    walk->generation = c.tree_generation;
    walk->t_start = simulator_.now();
    walk->secondaries.clear(); // recycled slot: keep the capacity
    inflight_walks_.push_back(ref);
    walk_node(ref);
}

void
Controller::walk_node(WalkRef ref)
{
    // Level latency = header DMA + entries DMA + parse; the two DMA
    // transactions are what the overlapped walkers hide (§V.B) and
    // what the node cache removes entirely on a hit.
    Walk *walk = walk_arena_.get(ref);
    ++walk->levels;
    if (node_cache_.enabled()) {
        if (const ExtentNodeCache::Node *cached =
                node_cache_.lookup(walk->op.fn, walk->node)) {
            metrics_.add(h_node_cache_hits_);
            if (walk->levels > kMaxWalkDepth) {
                walk_resolved_fault(ref, FaultKind::kTreeCorrupt);
                return;
            }
            simulator_.schedule_in(
                kNodeParseCost,
                [this, ref, header = cached->header,
                 data = cached->entries]() {
                    if (walk_canceled(ref))
                        return;
                    walk_process(ref, header.kind, header.count, data);
                });
            return;
        }
        metrics_.add(h_node_cache_misses_);
    }
    metrics_.add(h_walk_node_reads_);
    dma_.read(walk->op.fn, walk->node, sizeof(NodeHeaderRecord),
              [this, ref](util::Status status,
                          std::vector<std::byte> data) {
                  const bool whole = data.size() >= sizeof(NodeHeaderRecord);
                  NodeHeaderRecord header{};
                  if (whole)
                      std::memcpy(&header, data.data(), sizeof(header));
                  dma_.recycle_buffer(std::move(data));
                  if (walk_canceled(ref))
                      return;
                  if (!status.is_ok() || !whole) {
                      // Poisoned or failed node read: contain it to
                      // the faulting VF instead of killing the op with
                      // an opaque internal error.
                      walk_resolved_fault(ref, FaultKind::kTreeCorrupt);
                      return;
                  }
                  const bool kind_ok =
                      header.kind == static_cast<NodeKindTag>(
                                         NodeKind::kInternal) ||
                      header.kind ==
                          static_cast<NodeKindTag>(NodeKind::kLeaf);
                  const bool magic_ok =
                      header.magic == extent::kNodeMagic ||
                      header.magic == extent::kNodeMagicV2;
                  if (!magic_ok || !kind_ok ||
                      header.count > kMaxNodeEntries ||
                      header.depth > kMaxWalkDepth ||
                      walk_arena_.get(ref)->levels > kMaxWalkDepth) {
                      walk_resolved_fault(ref, FaultKind::kTreeCorrupt);
                      return;
                  }
                  simulator_.schedule_in(kNodeParseCost,
                                         [this, ref, header]() {
                                             walk_entries(ref, header);
                                         });
              });
}

void
Controller::walk_entries(WalkRef ref, NodeHeaderRecord header)
{
    Walk *walk = walk_arena_.get(ref);
    const NodeKindTag kind = header.kind;
    const std::uint32_t count = header.count;
    const pcie::HostAddr node = walk->node;
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(count) * extent::kEntrySize;
    dma_.read(
        walk->op.fn, extent::entry_addr(node, 0), bytes,
        [this, ref, header, kind, count, node](
            util::Status status, std::vector<std::byte> data) {
            if (walk_canceled(ref))
                return;
            if (!status.is_ok()) {
                walk_resolved_fault(ref, FaultKind::kTreeCorrupt);
                return;
            }
            if (header.magic == extent::kNodeMagicV2) {
                // v2 verify-on-fetch: one more 8-byte DMA pulls the
                // trailer, and the node is only trusted (and cached)
                // once header+entries match it. A flipped child
                // pointer dies here as kTreeCorrupt instead of
                // steering the walk into hostile memory.
                auto entries = std::make_shared<std::vector<std::byte>>(
                    std::move(data));
                dma_.read(
                    walk_arena_.get(ref)->op.fn,
                    extent::entry_addr(node, count),
                    extent::kNodeTrailerSize,
                    [this, ref, header, kind, count, entries](
                        util::Status tstatus,
                        std::vector<std::byte> tdata) {
                        extent::NodeTrailerRecord trailer{};
                        const bool whole =
                            tdata.size() >= sizeof(trailer);
                        if (whole)
                            std::memcpy(&trailer, tdata.data(),
                                        sizeof(trailer));
                        dma_.recycle_buffer(std::move(tdata));
                        if (walk_canceled(ref))
                            return;
                        const std::uint32_t want = extent::node_crc(
                            header, entries->data(), entries->size());
                        if (!tstatus.is_ok() || !whole ||
                            trailer.crc != want) {
                            metrics_.bump("tree_crc_errors");
                            walk_resolved_fault(ref,
                                                FaultKind::kTreeCorrupt);
                            return;
                        }
                        if (node_cache_.enabled()) {
                            Walk *walk = walk_arena_.get(ref);
                            node_cache_.insert(walk->op.fn, walk->node,
                                               header, *entries);
                        }
                        walk_process(ref, kind, count, *entries);
                        dma_.recycle_buffer(std::move(*entries));
                    });
                return;
            }
            if (node_cache_.enabled()) {
                // The node passed the header sanity checks; cache the
                // image so the next walk skips both DMA reads.
                Walk *walk = walk_arena_.get(ref);
                node_cache_.insert(walk->op.fn, walk->node, header, data);
            }
            walk_process(ref, kind, count, data);
            dma_.recycle_buffer(std::move(data));
        });
}

void
Controller::walk_process(WalkRef ref, NodeKindTag kind,
                         std::uint32_t count,
                         const std::vector<std::byte> &data)
{
    Walk *walk = walk_arena_.get(ref);
    const extent::Vlba vlba = walk->op.vlba;

    if (kind == static_cast<NodeKindTag>(NodeKind::kLeaf)) {
        for (std::uint32_t i = 0; i < count; ++i) {
            ExtentPtrRecord rec;
            std::memcpy(&rec, data.data() + i * extent::kEntrySize,
                        sizeof(rec));
            const extent::Extent ext{rec.first_vblock, rec.nblocks,
                                     rec.first_pblock};
            if (ext.contains(vlba)) {
                walk_resolved_mapped(ref, ext);
                return;
            }
            if (rec.first_vblock > vlba)
                break;
        }
        walk_resolved_hole(ref);
        return;
    }

    // Internal node: find the covering child.
    for (std::uint32_t i = 0; i < count; ++i) {
        NodePtrRecord rec;
        std::memcpy(&rec, data.data() + i * extent::kEntrySize,
                    sizeof(rec));
        if (vlba >= rec.first_vblock &&
            vlba < rec.first_vblock + rec.nblocks) {
            if (rec.child == pcie::kNullHostAddr) {
                walk_resolved_fault(ref, FaultKind::kPruned);
                return;
            }
            walk->node = rec.child;
            simulator_.schedule_in(kNodeParseCost,
                                   [this, ref]() { walk_node(ref); });
            return;
        }
        if (rec.first_vblock > vlba)
            break;
    }
    walk_resolved_hole(ref);
}

bool
Controller::walk_canceled(WalkRef ref)
{
    Walk *walk = walk_arena_.get(ref);
    FunctionContext &c = ctx(walk->op.fn);
    if (c.active && walk->generation == c.tree_generation)
        return false;
    // The mapping moved under the walk (SetExtentRoot, rewalk, reset)
    // or the function is gone: the result would be stale, so the ops
    // go back through translation against the current tree.
    std::vector<BlockOp> ops;
    if (c.active && !c.quarantined) {
        ops.reserve(1 + walk->secondaries.size());
        ops.push_back(walk->op);
        ops.insert(ops.end(), walk->secondaries.begin(),
                   walk->secondaries.end());
    }
    retire_walk(ref);
    if (!ops.empty())
        replay_ops(std::move(ops), false);
    release_walker();
    pump();
    return true;
}

void
Controller::walk_resolved_mapped(WalkRef ref, const extent::Extent &extent)
{
    Walk *walk = walk_arena_.get(ref);
    btlb_.insert(walk->op.fn, extent, walk->op.vlba);
    const BlockOp primary = walk->op;
    std::vector<BlockOp> secondaries = std::move(walk->secondaries);
    walk->secondaries.clear();
    retire_walk(ref);
    finish_mapped(primary, extent);
    std::vector<BlockOp> replay;
    for (BlockOp &s : secondaries) {
        if (extent.contains(s.vlba)) {
            // The attached miss resolves with the primary's extent:
            // zero extra DMA for it.
            metrics_.add(h_walk_coalesced_resolved_);
            finish_mapped(s, extent);
        } else {
            replay.push_back(s);
        }
    }
    if (!replay.empty())
        replay_ops(std::move(replay), true);
    release_walker();
    pump();
}

void
Controller::walk_resolved_hole(WalkRef ref)
{
    Walk *walk = walk_arena_.get(ref);
    const BlockOp primary = walk->op;
    std::vector<BlockOp> secondaries = std::move(walk->secondaries);
    walk->secondaries.clear();
    retire_walk(ref);
    finish_hole(primary);
    // A hole only says the primary's vLBA is unmapped; secondaries
    // re-translate individually.
    if (!secondaries.empty())
        replay_ops(std::move(secondaries), true);
    release_walker();
    pump();
}

void
Controller::walk_resolved_fault(WalkRef ref, FaultKind kind)
{
    Walk *walk = walk_arena_.get(ref);
    const BlockOp primary = walk->op;
    std::vector<BlockOp> secondaries = std::move(walk->secondaries);
    walk->secondaries.clear();
    retire_walk(ref);
    finish_fault(primary, kind);
    // Secondaries park behind the same fault, after the primary, so a
    // rewalk re-issues them in arrival order.
    FunctionContext &c = ctx(primary.fn);
    for (BlockOp &s : secondaries)
        c.stalled_ops.push_back(s);
    release_walker();
    pump();
}

void
Controller::retire_walk(WalkRef ref)
{
    // Every walk resolution path funnels through here, so this is the
    // one place the kWalk span (launch to resolution) is recorded.
    // Releasing the slot makes every outstanding ref to it stale.
    Walk *walk = walk_arena_.get(ref);
    tracer_.span(obs::Stage::kWalk, walk->op.fn, walk->t_start,
                 simulator_.now(), walk->op.tag, walk->levels);
    std::erase(inflight_walks_, ref);
    walk_arena_.release(ref);
}

void
Controller::replay_ops(std::vector<BlockOp> ops, bool mark_no_coalesce)
{
    metrics_.add(h_walk_replays_, ops.size());
    for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
        if (mark_no_coalesce)
            it->no_coalesce = true;
        vlba_queue_.push_front(*it);
    }
}

void
Controller::release_walker()
{
    assert(active_walks_ > 0);
    --active_walks_;
}

void
Controller::finish_mapped(const BlockOp &op, const extent::Extent &extent)
{
    const extent::Plba plba = extent.translate(op.vlba);
    if (plba >= device_.geometry().num_blocks()) {
        // The extent points outside the physical device: the tree (or
        // a BTLB entry derived from it) is corrupt.
        finish_fault(op, FaultKind::kTreeCorrupt);
        return;
    }
    BlockOp stamped = op;
    stamped.t_translated = simulator_.now();
    plba_queue_.emplace_back(stamped, plba);
}

void
Controller::finish_hole(const BlockOp &op)
{
    if (op.op == Opcode::kRead) {
        // POSIX: holes read as zeros (paper §IV.C) — the device DMAs
        // zeros straight to the destination buffer.
        start_zero_fill(op);
        return;
    }
    finish_fault(op, FaultKind::kWriteMiss);
}

void
Controller::finish_fault(const BlockOp &op, FaultKind kind)
{
    FunctionContext &c = ctx(op.fn);
    if (c.quarantined)
        return; // op already aborted; no fault latch, no PF IRQ storm
    c.stalled_ops.push_back(op);
    if (c.fault != FaultKind::kNone)
        return; // already faulted; hypervisor will service in order
    c.fault = kind;
    c.miss_address = op.vlba * static_cast<std::uint64_t>(kDeviceBlockSize);
    c.miss_size = kDeviceBlockSize;
    ++c.stats.faults;
    switch (kind) {
      case FaultKind::kWriteMiss: metrics_.bump("write_miss_faults"); break;
      case FaultKind::kPruned: metrics_.bump("prune_faults"); break;
      case FaultKind::kTreeCorrupt:
        metrics_.bump("tree_corrupt_faults");
        // Any cached translation or node image may derive from the
        // corrupt tree.
        btlb_.flush_function(op.fn);
        node_cache_.invalidate_function(op.fn);
        break;
      case FaultKind::kNone: break;
    }
    tracer_.instant(obs::Stage::kFault, op.fn, simulator_.now(), op.tag,
                    static_cast<std::uint64_t>(kind));
    flight_.record(op.fn, obs::FlightEventType::kFault, simulator_.now(),
                   static_cast<std::uint32_t>(op.tag), op.vlba,
                   static_cast<std::uint32_t>(kind));
    flight_.snapshot(op.fn, obs::PostmortemReason::kFault,
                     simulator_.now(), static_cast<std::uint64_t>(kind));
    update_arb_eligibility(op.fn); // a faulted fn leaves arbitration
    irq_.raise(kFaultVector);
}

void
Controller::handle_rewalk(pcie::FunctionId fn)
{
    FunctionContext &c = ctx(fn);
    if (c.fault == FaultKind::kNone)
        return;
    c.fault = FaultKind::kNone;
    c.miss_address = 0;
    c.miss_size = 0;
    // The hypervisor serviced the fault by editing the tree: cached
    // node images are stale, and any walk still in flight for this
    // function must not deliver a result derived from the old tree.
    ++c.tree_generation;
    node_cache_.invalidate_function(fn);
    // Re-issue parked operations ahead of anything newly queued, each
    // at the front of the pair it was fetched from (back-to-front, so
    // a pair's parked ops come out in their original order).
    while (!c.stalled_ops.empty()) {
        const BlockOp &op = c.stalled_ops.back();
        if (Qp *q = qp(c, op.qid); q != nullptr) {
            q->staging.push_front(op);
            ++c.queued_ops;
        }
        c.stalled_ops.pop_back();
    }
    metrics_.bump("rewalks");
    update_arb_eligibility(fn);
    pump();
}

void
Controller::fail_stalled(pcie::FunctionId fn)
{
    FunctionContext &c = ctx(fn);
    if (c.fault == FaultKind::kNone)
        return;
    c.fault = FaultKind::kNone;
    c.miss_address = 0;
    c.miss_size = 0;
    util::RingQueue<BlockOp> parked;
    parked.swap(c.stalled_ops);
    // Only writes missed: reads parked behind the fault were stalled
    // by ordering alone, so requeue them (ahead of newer arrivals on
    // their own pair, preserving their relative order) and the VF
    // resumes cleanly.
    for (auto it = parked.rbegin(); it != parked.rend(); ++it)
        if (it->op == Opcode::kRead) {
            if (Qp *q = qp(c, it->qid); q != nullptr) {
                q->staging.push_front(*it);
                ++c.queued_ops;
            }
        }
    for (const BlockOp &op : parked)
        if (op.op != Opcode::kRead)
            complete_block(op, CompletionStatus::kWriteFailed);
    metrics_.bump("write_failures");
    update_arb_eligibility(fn);
    pump();
}

// --------------------------------------------------------------------
// Data-transfer unit
// --------------------------------------------------------------------

void
Controller::start_transfers()
{
    while (inflight_transfers_ < kMaxInflightTransfers &&
           !plba_queue_.empty()) {
        auto [op, plba] = plba_queue_.front();
        plba_queue_.pop_front();
        start_transfer(op, plba);
    }
    // Draining the pLBA queue may unblock the translation stage.
    if (active_walks_ < config_.walk_overlap && !vlba_queue_.empty())
        start_walks();
}

namespace {
/** Completion for a DMA the engine failed: a window refusal or worse. */
CompletionStatus
dma_failure(const util::Status &status)
{
    return status.code() == util::ErrorCode::kPermissionDenied
               ? CompletionStatus::kDmaFault
               : CompletionStatus::kInternalError;
}
} // namespace

void
Controller::start_transfer(const BlockOp &op, extent::Plba plba)
{
    ++inflight_transfers_;
    const sim::Time t_start = simulator_.now();
    if (op.op == Opcode::kRead) {
        // Media read, verify, then DMA the payload to the host buffer.
        const storage::MediaOp io = media_op(plba);
        media_->read(
            plba, dma_.acquire_buffer(kDeviceBlockSize), io,
            [this, op, plba, t_start, verifying = io.sidecar != nullptr](
                util::Status status, int backend,
                std::vector<std::byte> data) {
                if (media_spans_) {
                    tracer_.span(obs::Stage::kReplRead, op.fn, t_start,
                                 simulator_.now(), op.tag, op.vlba);
                    metrics_.add(h_repl_reads_);
                }
                if (!status.is_ok()) {
                    ++ctx(op.fn).stats.media_errors;
                    metrics_.bump("media_read_errors");
                    dma_.recycle_buffer(std::move(data));
                    finish_transfer(op, CompletionStatus::kReadMediaError);
                    return;
                }
                if (verifying && !integrity_->verify(plba, data)) {
                    note_checksum_mismatch(op.fn, op);
                    climb_ladder(Ladder{op, plba, 0,
                                        static_cast<std::uint32_t>(backend),
                                        integrity_reread_limit_, 0, 0},
                                 std::move(data));
                    return;
                }
                finish_read_payload(op, std::move(data));
            });
        return;
    }

    // Write: DMA the payload from host memory, then the media write,
    // which acks once the data (and its checksum) is durable.
    dma_.read(op.fn, op.buffer, kDeviceBlockSize,
              [this, op, plba, t_start](util::Status status,
                                        std::vector<std::byte> data) {
                  if (!status.is_ok()) {
                      finish_transfer(op, dma_failure(status));
                      return;
                  }
                  media_->write(
                      plba, data, media_op(plba),
                      [this, op, t_start](util::Status wstatus) {
                          if (media_spans_) {
                              tracer_.span(obs::Stage::kReplWrite, op.fn,
                                           t_start, simulator_.now(),
                                           op.tag, op.vlba);
                              metrics_.add(h_repl_writes_);
                          }
                          if (!wstatus.is_ok()) {
                              ++ctx(op.fn).stats.media_errors;
                              metrics_.bump("media_write_errors");
                              finish_transfer(
                                  op, CompletionStatus::kWriteMediaError);
                              return;
                          }
                          ctx(op.fn).stats.blocks_written += 1;
                          finish_transfer(op, CompletionStatus::kOk);
                      });
                  // The media consumed the payload at submission.
                  dma_.recycle_buffer(std::move(data));
              });
}

void
Controller::finish_transfer(const BlockOp &op, CompletionStatus status)
{
    --inflight_transfers_;
    complete_block(op, status);
    pump();
}

void
Controller::finish_read_payload(const BlockOp &op,
                                std::vector<std::byte> data)
{
    dma_.write(op.fn, op.buffer, std::move(data),
               [this, op](util::Status dma_status) {
                   ctx(op.fn).stats.blocks_read += 1;
                   finish_transfer(op, dma_status.is_ok()
                                           ? CompletionStatus::kOk
                                           : dma_failure(dma_status));
               });
}

void
Controller::climb_ladder(Ladder ladder, std::vector<std::byte> data)
{
    for (;;) {
        if (ladder.rereads_left > 0) {
            // Rung 1: re-read the backend that served the damaged
            // payload.
            --ladder.rereads_left;
            ladder.from = ladder.bad;
            metrics_.bump("checksum_rereads");
        } else {
            // Rung 2: the next alternate backend.
            if (ladder.next_alt == ladder.bad)
                ++ladder.next_alt;
            if (ladder.next_alt >= media_->backend_count()) {
                // Exhausted: no verified copy anywhere reachable.
                metrics_.bump("checksum_unrecovered");
                dma_.recycle_buffer(std::move(data));
                finish_transfer(ladder.op, CompletionStatus::kChecksumError);
                return;
            }
            ladder.from = ladder.next_alt++;
        }
        ladder.t_rung = simulator_.now();
        LadderAnswer answer;
        ladder_inline_ = &answer;
        media_->read_from(
            ladder.from, ladder.plba, std::move(data),
            [this, ladder](util::Status status, int /*backend*/,
                           std::vector<std::byte> buf) {
                if (ladder_inline_ != nullptr) {
                    *ladder_inline_ = {true, std::move(status),
                                       std::move(buf)};
                    return;
                }
                if (!ladder_rung_done(ladder, status, buf))
                    climb_ladder(ladder, std::move(buf));
            });
        ladder_inline_ = nullptr;
        if (!answer.arrived)
            return; // answers on a later event; its callback climbs on
        if (ladder_rung_done(ladder, answer.status, answer.data))
            return;
        data = std::move(answer.data);
    }
}

bool
Controller::ladder_rung_done(const Ladder &ladder, const util::Status &status,
                             std::vector<std::byte> &data)
{
    tracer_.span(obs::Stage::kChecksum, ladder.op.fn, ladder.t_rung,
                 simulator_.now(), ladder.op.tag, ladder.op.vlba);
    if (!status.is_ok() || !integrity_->verify(ladder.plba, data))
        return false;
    if (ladder.from == ladder.bad) {
        metrics_.bump("checksum_reread_recoveries");
    } else if (media_->repair_blocks(ladder.bad, ladder.plba, data)
                   .is_ok()) {
        ++integrity_repairs_;
        metrics_.bump("checksum_repairs");
    }
    finish_read_payload(ladder.op, std::move(data));
    return true;
}

void
Controller::start_zero_fill(const BlockOp &original)
{
    BlockOp op = original;
    op.t_translated = simulator_.now();
    ++inflight_transfers_;
    ctx(op.fn).stats.holes_zero_filled += 1;
    metrics_.add(h_holes_zero_filled_);
    const sim::Time t_fill = simulator_.now();
    dma_.write_zero(op.fn, op.buffer, kDeviceBlockSize,
                    [this, op, t_fill](util::Status status) {
                        tracer_.span(obs::Stage::kZeroFill, op.fn, t_fill,
                                     simulator_.now(), op.tag, op.vlba);
                        finish_transfer(op, status.is_ok()
                                                ? CompletionStatus::kOk
                                                : dma_failure(status));
                    });
}

// --------------------------------------------------------------------
// Completion
// --------------------------------------------------------------------

Controller::CmdRef
Controller::open_command(FunctionContext &c, std::uint64_t tag,
                         std::uint32_t remaining, sim::Time t_start,
                         std::uint16_t qid)
{
    const CmdRef ref = cmd_arena_.acquire();
    PendingCommand *cmd = cmd_arena_.get(ref);
    cmd->remaining = remaining;
    cmd->status = CompletionStatus::kOk;
    cmd->t_start = t_start;
    cmd->qid = qid;
    // A guest reusing a live tag orphans the old command: its ref is
    // released here, so blocks still in flight for it drop on the
    // stale-handle miss instead of aliasing the new command.
    if (auto [it, inserted] = c.pending.try_emplace(tag, ref); !inserted) {
        cmd_arena_.release(it->second);
        it->second = ref;
    }
    return ref;
}

void
Controller::complete_block(const BlockOp &op, CompletionStatus status)
{
    // Stage breakdown: only fully-traced, successfully-executed block
    // operations contribute (faulted/error ops skip stages). The trace
    // spans are cut from the same timestamps feeding the histograms,
    // so trace-derived stage totals reproduce this accounting exactly.
    bool slo_counted = false;
    if (status == CompletionStatus::kOk && op.t_queued &&
        op.t_arbitrated && op.t_translated) {
        const sim::Time now = simulator_.now();
        stage_queue_.observe(op.t_arbitrated - op.t_queued);
        stage_translate_.observe(op.t_translated - op.t_arbitrated);
        stage_transfer_.observe(now - op.t_translated);
        if (obs_window_ns_ != 0) {
            // observe_ok also counts the op, so the common OK path pays
            // one SLO call per completion, not two.
            slo_.observe_ok(op.fn, now - op.t_queued,
                            op.t_arbitrated - op.t_queued,
                            op.t_translated - op.t_arbitrated,
                            now - op.t_translated);
            slo_counted = true;
        }
        if (tracer_.enabled()) {
            tracer_.span(obs::Stage::kQueueWait, op.fn, op.t_queued,
                         op.t_arbitrated, op.tag, op.vlba);
            tracer_.span(obs::Stage::kTranslate, op.fn, op.t_arbitrated,
                         op.t_translated, op.tag, op.vlba);
            tracer_.span(obs::Stage::kTransfer, op.fn, op.t_translated,
                         now, op.tag, op.vlba);
        }
    }
    if (obs_window_ns_ != 0 && !slo_counted)
        slo_.note_op(op.fn, status != CompletionStatus::kOk);
    PendingCommand *cmd = cmd_arena_.get(op.cmd);
    if (cmd == nullptr)
        return; // command was torn down (abort/quarantine/VF delete)
    if (status != CompletionStatus::kOk)
        cmd->status = status;
    if (--cmd->remaining > 0)
        return;
    const CompletionStatus final_status = cmd->status;
    FunctionContext &c = ctx(op.fn);
    c.pending.erase(op.tag);
    cmd_arena_.release(op.cmd);
    enqueue_completion(op.fn, op.qid, op.tag, final_status);
}

void
Controller::enqueue_completion(pcie::FunctionId fn, std::uint16_t qid,
                               std::uint64_t tag, CompletionStatus status)
{
    // One CQ write plus one MSI per completion, each in its own event
    // after the completion-engine latency (paper behaviour).
    FunctionContext &c = ctx(fn);
    if (qp(c, qid) == nullptr)
        return; // pair deleted: its completions die with the queue
    simulator_.schedule_in(kCompletionCost,
                           [this, fn, ref = c.qps[qid], tag, status]() {
                               post_completion(fn, ref, tag, status);
                           });
}

void
Controller::post_completion(pcie::FunctionId fn, QpRef ref,
                            std::uint64_t tag, CompletionStatus status)
{
    Qp *q = qp_arena_.get(ref);
    if (q == nullptr)
        return; // pair deleted or reset: the completion is dropped
    FunctionContext &c = ctx(fn);
    if (!q->cq) {
        auto ring = pcie::HostRing::attach(host_memory_, q->cq_base);
        if (!ring.is_ok()) {
            NESC_LOG_WARN("fn %u: completion with no completion ring", fn);
            return;
        }
        pcie::HostRing attached = std::move(ring).value();
        if (attached.record_size() != sizeof(CompletionRecord) ||
            attached.capacity() == 0 ||
            attached.capacity() > kMaxRingCapacity) {
            NESC_LOG_WARN("fn %u: completion ring shape rejected", fn);
            note_validation_fault(fn, QuarantineCause::kRingCorrupt);
            return;
        }
        // Completions are device writes into guest memory: a confined
        // fn's completion ring must also sit inside its windows.
        if (!dma_
                 .check_window(fn, attached.base(),
                               pcie::HostRing::footprint(
                                   attached.capacity(),
                                   attached.record_size()))
                 .is_ok())
            return; // the violation hook has quarantined the fn
        q->cq = std::move(attached);
    }
    CompletionRecord rec{tag, static_cast<std::uint32_t>(status), 0};
    std::array<std::byte, sizeof(rec)> buf;
    std::memcpy(buf.data(), &rec, sizeof(rec));
    dma_.book(sizeof(rec));
    util::Status pushed = q->cq->push(buf);
    if (!pushed.is_ok()) {
        NESC_LOG_WARN("fn %u: completion ring push failed: %s", fn,
                      pushed.message().c_str());
        if (pushed.code() == util::ErrorCode::kDataLoss) {
            // Corrupted header (not mere overflow): misbehavior.
            note_validation_fault(fn, QuarantineCause::kRingCorrupt);
        }
    }
    ++c.stats.completions;
    ++q->stats.completions;
    metrics_.add(h_completions_);
    tracer_.instant(obs::Stage::kComplete, fn, simulator_.now(), tag,
                    static_cast<std::uint64_t>(status));
    flight_.record(fn, obs::FlightEventType::kComplete, simulator_.now(),
                   static_cast<std::uint32_t>(tag), 0,
                   static_cast<std::uint32_t>(status));
    raise_completion_irq(fn, ref, *q);
}

void
Controller::raise_completion_irq(pcie::FunctionId fn, QpRef ref, Qp &q)
{
    const pcie::IrqVector vector =
        q.irq_vector ? q.irq_vector : queue_vector(fn, q.qid);
    if (config_.irq_coalesce == 0) {
        irq_.raise(vector);
        return;
    }
    // Coalesced mode: one MSI per window per pair, batching whatever
    // completions accumulate in that CQ meanwhile. The timer holds the
    // pair's handle: a pair deleted or reset meanwhile takes its MSI
    // with it and never clears its successor's pending flag.
    if (q.irq_pending)
        return;
    q.irq_pending = true;
    simulator_.schedule_in(config_.irq_coalesce, [this, ref, vector]() {
        if (Qp *fq = qp_arena_.get(ref); fq != nullptr) {
            fq->irq_pending = false;
            irq_.raise(vector);
        }
    });
    metrics_.bump("irqs_coalesced");
}

// --------------------------------------------------------------------
// Error containment
// --------------------------------------------------------------------

void
Controller::arm_watchdog(pcie::FunctionId fn)
{
    FunctionContext &c = ctx(fn);
    if (c.watchdog_ns == 0 || c.watchdog_expiry || c.pending.empty())
        return;
    // One timer per function, aimed at the oldest command's deadline.
    sim::Time earliest = ~sim::Time{0};
    for (const auto &[tag, ref] : c.pending)
        earliest = std::min(earliest, cmd_arena_.get(ref)->t_start);
    // Saturate: a deadline past the end of time must never wrap into
    // the past and spin the fire/rearm pair at a single timestamp.
    const sim::Time deadline =
        earliest > ~sim::Time{0} - c.watchdog_ns ? ~sim::Time{0}
                                                 : earliest + c.watchdog_ns;
    const sim::Time expiry = std::max(deadline, simulator_.now());
    c.watchdog_expiry = expiry;
    simulator_.schedule_at(expiry,
                           [this, fn, expiry]() { watchdog_fire(fn, expiry); });
}

void
Controller::watchdog_fire(pcie::FunctionId fn, sim::Time expiry)
{
    FunctionContext &c = ctx(fn);
    if (c.watchdog_expiry != expiry)
        return; // disarmed by a reset, or superseded by a newer timer
    c.watchdog_expiry.reset();
    if (!c.active || c.watchdog_ns == 0)
        return;
    const sim::Time now = simulator_.now();
    std::vector<std::uint64_t> expired;
    for (const auto &[tag, ref] : c.pending)
        if (now - cmd_arena_.get(ref)->t_start >= c.watchdog_ns)
            expired.push_back(tag);
    for (std::uint64_t tag : expired)
        abort_command(fn, tag);
    arm_watchdog(fn); // younger commands keep their own deadline
    pump();
}

void
Controller::abort_command(pcie::FunctionId fn, std::uint64_t tag)
{
    FunctionContext &c = ctx(fn);
    auto it = c.pending.find(tag);
    if (it == c.pending.end())
        return;
    const std::uint16_t qid = cmd_arena_.get(it->second)->qid;
    // Tear down every queued copy of the command; blocks already in
    // the transfer stage drop on completion via the pending-map miss.
    for (const QpRef &qref : c.qps)
        if (Qp *q = qp_arena_.get(qref))
            c.queued_ops -= q->staging.erase_if(
                [tag](const BlockOp &op) { return op.tag == tag; });
    c.stalled_ops.erase_if(
        [tag](const BlockOp &op) { return op.tag == tag; });
    purge_shared_queues(fn, tag);
    cmd_arena_.release(it->second);
    c.pending.erase(it);
    ++c.stats.aborted_ops;
    metrics_.bump("aborted_ops");
    tracer_.instant(obs::Stage::kAbort, fn, simulator_.now(), tag);
    update_arb_eligibility(fn);
    // Fault state (if any) stays latched: an abort is a deadline miss,
    // not a recovery — the hypervisor services the fault or the driver
    // escalates to a function-level reset.
    enqueue_completion(fn, qid, tag, CompletionStatus::kAborted);
}

void
Controller::function_level_reset(pcie::FunctionId fn)
{
    FunctionContext &c = ctx(fn);
    if (!c.active)
        return;
    purge_shared_queues(fn, std::nullopt);
    // Extra pairs are destroyed, pair 0 survives with cleared state
    // (pending kAborted completions die with their queues); the PF-
    // owned qp_quota and rate-limit bucket survive the reset.
    reset_queue_pairs(c);
    c.queued_ops = 0;
    c.rr_qp_cursor = 0;
    c.arb_deficit = 0;
    c.stalled_ops.clear();
    // In-flight transfers drop on the stale command-handle miss.
    for (const auto &[tag, ref] : c.pending)
        cmd_arena_.release(ref);
    c.pending.clear();
    c.fault = FaultKind::kNone;
    c.miss_address = 0;
    c.miss_size = 0;
    c.qp_select = 0;
    c.qp_status = 0;
    c.qp_sq_latch = pcie::kNullHostAddr;
    c.qp_cq_latch = pcie::kNullHostAddr;
    c.qp_irq_latch = 0;
    c.watchdog_ns = 0;
    c.watchdog_expiry.reset();
    btlb_.flush_function(fn);
    node_cache_.invalidate_function(fn);
    // In-flight walks for this fn carry ops of torn-down commands;
    // cancel them (the replayed ops then drop on the pending miss).
    ++c.tree_generation;
    ++c.stats.fn_resets;
    metrics_.bump("fn_resets");
    update_arb_eligibility(fn);
    pump();
}

void
Controller::purge_shared_queues(pcie::FunctionId fn,
                                std::optional<std::uint64_t> tag)
{
    auto match = [fn, tag](const BlockOp &op) {
        return op.fn == fn && (!tag || op.tag == *tag);
    };
    vlba_queue_.erase_if(match);
    plba_queue_.erase_if(
        [&](const auto &entry) { return match(entry.first); });
}

void
Controller::enable_tracing(std::size_t capacity)
{
    tracer_.enable(capacity);
    dma_.set_tracer(&tracer_);
    dma_.link().set_observer(&link_observer_);
}

void
Controller::disable_tracing()
{
    tracer_.disable();
    dma_.set_tracer(nullptr);
    dma_.link().set_observer(nullptr);
}

bool
Controller::function_quiescent(pcie::FunctionId fn) const
{
    const FunctionContext &c = contexts_[fn];
    if (c.queued_ops != 0 || !c.stalled_ops.empty() ||
        !c.pending.empty())
        return false;
    for (const QpRef &qref : c.qps) {
        const Qp *q = qp_arena_.get(qref);
        if (q != nullptr && q->fetch_in_progress)
            return false;
    }
    for (const BlockOp &op : vlba_queue_)
        if (op.fn == fn)
            return false;
    for (const auto &[op, plba] : plba_queue_)
        if (op.fn == fn)
            return false;
    return true;
}

} // namespace nesc::ctrl
