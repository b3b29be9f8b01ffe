#include "pf_driver.h"

#include "fs/extent_map.h"
#include "util/log.h"
#include "util/units.h"

#undef NESC_LOG_COMPONENT
#define NESC_LOG_COMPONENT "pf_driver"

namespace nesc::drv {

PfDriver::PfDriver(sim::Simulator &simulator, pcie::HostMemory &host_memory,
                   pcie::BarPageRouter &bar, pcie::InterruptController &irq,
                   const PfDriverConfig &config)
    : simulator_(simulator), host_memory_(host_memory), bar_(bar),
      irq_(irq), config_(config)
{
}

PfDriver::~PfDriver()
{
    irq_.clear_handler(ctrl::kFaultVector);
}

util::Status
PfDriver::init()
{
    pf_data_ = std::make_unique<FunctionDriver>(
        simulator_, host_memory_, bar_, irq_, pcie::kPhysicalFunctionId,
        config_.function);
    NESC_RETURN_IF_ERROR(pf_data_->init());
    irq_.set_handler(ctrl::kFaultVector, [this]() { handle_fault_irq(); });
    return util::Status::ok();
}

util::Status
PfDriver::reg_write(pcie::FunctionId fn, std::uint64_t offset,
                    std::uint64_t value)
{
    simulator_.advance(config_.function.mmio_write_cost);
    return bar_.write(bar_.function_base(fn) + offset, value, 8);
}

util::Result<std::uint64_t>
PfDriver::reg_read(pcie::FunctionId fn, std::uint64_t offset)
{
    simulator_.advance(config_.function.mmio_read_cost);
    return bar_.read(bar_.function_base(fn) + offset, 8);
}

util::Status
PfDriver::mgmt_post(ctrl::MgmtCommand command,
                    std::initializer_list<MgmtStage> staged)
{
    for (const MgmtStage &stage : staged)
        NESC_RETURN_IF_ERROR(
            reg_write(pcie::kPhysicalFunctionId, stage.offset, stage.value));
    return reg_write(pcie::kPhysicalFunctionId, ctrl::reg::kMgmtCommand,
                     static_cast<std::uint64_t>(command));
}

util::Status
PfDriver::mgmt_command(ctrl::MgmtCommand command,
                       std::initializer_list<MgmtStage> staged,
                       const char *rejected,
                       util::Status (*reject)(std::string))
{
    NESC_RETURN_IF_ERROR(mgmt_post(command, staged));
    NESC_ASSIGN_OR_RETURN(
        const std::uint64_t status,
        reg_read(pcie::kPhysicalFunctionId, ctrl::reg::kMgmtStatus));
    if (status != static_cast<std::uint64_t>(ctrl::MgmtStatus::kOk))
        return reject(rejected);
    return util::Status::ok();
}

util::Result<std::vector<TelemetryEntry>>
PfDriver::dump_telemetry(pcie::FunctionId fn)
{
    NESC_ASSIGN_OR_RETURN(const std::uint64_t count,
                          reg_read(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kTelemetryCount));
    std::vector<TelemetryEntry> entries;
    entries.reserve(count);
    for (std::uint64_t index = 0; index < count; ++index) {
        const std::uint64_t select =
            (index << 16) | (static_cast<std::uint64_t>(fn) & 0xffff);
        NESC_RETURN_IF_ERROR(reg_write(pcie::kPhysicalFunctionId,
                                       ctrl::reg::kTelemetrySelect,
                                       select));
        TelemetryEntry entry;
        NESC_ASSIGN_OR_RETURN(entry.value,
                              reg_read(pcie::kPhysicalFunctionId,
                                       ctrl::reg::kTelemetryValue));
        if (entry.value == ~std::uint64_t{0})
            return util::not_found_error(
                "telemetry selection rejected by device");
        for (std::size_t chunk = 0; chunk < 3; ++chunk) {
            NESC_ASSIGN_OR_RETURN(
                const std::uint64_t packed,
                reg_read(pcie::kPhysicalFunctionId,
                         ctrl::reg::kTelemetryName0 + 8 * chunk));
            for (unsigned shift = 0; shift < 64; shift += 8) {
                const char ch =
                    static_cast<char>((packed >> shift) & 0xff);
                if (ch == '\0')
                    break;
                entry.name.push_back(ch);
            }
        }
        entries.push_back(std::move(entry));
    }
    return entries;
}

util::Result<pcie::FunctionId>
PfDriver::create_vf(fs::InodeId backing_file, std::uint64_t size_blocks)
{
    // Translate the filesystem's per-file mapping into the device ABI
    // (paper §IV.C: "this stage typically consists of translating the
    // filesystem's own per-file extent tree to the NeSC tree format").
    if (fs_ == nullptr)
        return util::failed_precondition_error("no filesystem attached");
    NESC_ASSIGN_OR_RETURN(auto extents, fs_->fiemap(backing_file));
    NESC_ASSIGN_OR_RETURN(
        auto image,
        extent::ExtentTreeImage::build(host_memory_, extents, config_.tree));

    const pcie::FunctionId fn = next_vf_++;
    util::Status created = mgmt_command(
        ctrl::MgmtCommand::kCreateVf,
        {{ctrl::reg::kMgmtVfId, fn},
         {ctrl::reg::kMgmtExtentRoot, image.root()},
         {ctrl::reg::kMgmtDeviceSize, size_blocks}},
        "device rejected VF create", util::resource_exhausted_error);
    if (!created.is_ok()) {
        (void)image.destroy();
        return created;
    }
    vfs_[fn] = VfInfo{fn, backing_file, size_blocks};
    trees_.emplace(fn, std::move(image));
    tree_owner_[fn] = fn;
    return fn;
}

util::Result<pcie::FunctionId>
PfDriver::create_vf_shared(pcie::FunctionId owner_fn,
                           std::uint64_t size_blocks)
{
    auto owner_it = vfs_.find(owner_fn);
    if (owner_it == vfs_.end())
        return util::not_found_error("no such VF to share with");
    const pcie::FunctionId root_owner = tree_owner_.at(owner_fn);
    const extent::ExtentTreeImage &tree = trees_.at(root_owner);

    const pcie::FunctionId fn = next_vf_++;
    NESC_RETURN_IF_ERROR(mgmt_command(
        ctrl::MgmtCommand::kCreateVf,
        {{ctrl::reg::kMgmtVfId, fn},
         {ctrl::reg::kMgmtExtentRoot, tree.root()},
         {ctrl::reg::kMgmtDeviceSize, size_blocks}},
        "device rejected VF create", util::resource_exhausted_error));
    vfs_[fn] = VfInfo{fn, owner_it->second.backing_file, size_blocks};
    tree_owner_[fn] = root_owner;
    return fn;
}

util::Status
PfDriver::set_qos_weight(pcie::FunctionId fn, std::uint32_t weight)
{
    if (!vfs_.contains(fn))
        return util::not_found_error("no such VF");
    return mgmt_command(ctrl::MgmtCommand::kSetQosWeight,
                        {{ctrl::reg::kMgmtVfId, fn},
                         {ctrl::reg::kMgmtQosWeight, weight}},
                        "device rejected QoS update");
}

util::Status
PfDriver::set_qp_quota(pcie::FunctionId fn, std::uint32_t quota)
{
    if (!vfs_.contains(fn))
        return util::not_found_error("no such VF");
    return mgmt_command(ctrl::MgmtCommand::kSetQpQuota,
                        {{ctrl::reg::kMgmtVfId, fn},
                         {ctrl::reg::kMgmtQpQuota, quota}},
                        "device rejected queue-pair quota update");
}

util::Status
PfDriver::set_rate_limit(pcie::FunctionId fn, std::uint64_t bytes_per_sec,
                         std::uint64_t burst_bytes)
{
    if (!vfs_.contains(fn))
        return util::not_found_error("no such VF");
    return mgmt_command(ctrl::MgmtCommand::kSetRateLimit,
                        {{ctrl::reg::kMgmtVfId, fn},
                         {ctrl::reg::kMgmtRateBytesPerSec, bytes_per_sec},
                         {ctrl::reg::kMgmtRateBurstBytes, burst_bytes}},
                        "device rejected rate-limit update");
}

util::Status
PfDriver::set_arb_mode(ctrl::ArbMode mode)
{
    return reg_write(pcie::kPhysicalFunctionId, ctrl::reg::kArbMode,
                     static_cast<std::uint64_t>(mode));
}

util::Status
PfDriver::set_arb_quantum(std::uint32_t quantum)
{
    return reg_write(pcie::kPhysicalFunctionId, ctrl::reg::kArbQuantum,
                     quantum);
}

util::Status
PfDriver::delete_vf(pcie::FunctionId fn)
{
    auto it = vfs_.find(fn);
    if (it == vfs_.end())
        return util::not_found_error("no such VF");
    // A tree owner cannot go away while other VFs still walk its tree.
    for (const auto &[other, owner] : tree_owner_) {
        if (other != fn && owner == fn) {
            return util::failed_precondition_error(
                "VF tree is shared; delete sharers first");
        }
    }
    NESC_RETURN_IF_ERROR(mgmt_command(ctrl::MgmtCommand::kDeleteVf,
                                      {{ctrl::reg::kMgmtVfId, fn}},
                                      "device rejected VF delete"));
    auto tree_it = trees_.find(fn);
    if (tree_it != trees_.end()) {
        NESC_RETURN_IF_ERROR(tree_it->second.destroy());
        trees_.erase(tree_it);
    }
    vfs_.erase(it);
    tree_owner_.erase(fn);
    allocation_denied_.erase(fn);
    return util::Status::ok();
}

util::Status
PfDriver::flush_btlb()
{
    return mgmt_post(ctrl::MgmtCommand::kFlushBtlb);
}

bool
PfDriver::repl_attached()
{
    auto quorum =
        reg_read(pcie::kPhysicalFunctionId, ctrl::reg::kReplQuorum);
    return quorum.is_ok() && quorum.value() != ~std::uint64_t{0};
}

util::Status
PfDriver::set_repl_quorum(std::uint32_t quorum)
{
    if (!repl_attached())
        return util::failed_precondition_error("no replica set attached");
    return reg_write(pcie::kPhysicalFunctionId, ctrl::reg::kReplQuorum,
                     quorum);
}

util::Status
PfDriver::set_repl_read_timeout(sim::Duration timeout_ns)
{
    if (!repl_attached())
        return util::failed_precondition_error("no replica set attached");
    return reg_write(pcie::kPhysicalFunctionId,
                     ctrl::reg::kReplReadTimeoutNs,
                     static_cast<std::uint64_t>(timeout_ns));
}

util::Result<ReplBackendStatus>
PfDriver::repl_backend_status(std::uint32_t backend)
{
    NESC_RETURN_IF_ERROR(reg_write(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kReplBackendSelect,
                                   backend));
    ReplBackendStatus status;
    NESC_ASSIGN_OR_RETURN(status.state,
                          reg_read(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kReplBackendState));
    if (status.state == ~std::uint64_t{0})
        return util::not_found_error(
            "replication backend selection rejected by device");
    NESC_ASSIGN_OR_RETURN(status.dirty_blocks,
                          reg_read(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kReplBackendDirty));
    NESC_ASSIGN_OR_RETURN(status.timeouts,
                          reg_read(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kReplBackendTimeouts));
    NESC_ASSIGN_OR_RETURN(status.errors,
                          reg_read(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kReplBackendErrors));
    NESC_ASSIGN_OR_RETURN(status.resync_copied,
                          reg_read(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kReplResyncDone));
    return status;
}

util::Result<std::uint64_t>
PfDriver::repl_failovers()
{
    NESC_ASSIGN_OR_RETURN(const std::uint64_t failovers,
                          reg_read(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kReplFailovers));
    if (failovers == ~std::uint64_t{0})
        return util::not_found_error("no replica set attached");
    return failovers;
}

util::Status
PfDriver::repl_demote(std::uint32_t backend)
{
    return mgmt_command(ctrl::MgmtCommand::kReplDemote,
                        {{ctrl::reg::kReplBackendSelect, backend}},
                        "device rejected demote");
}

util::Status
PfDriver::repl_resync(std::uint32_t backend)
{
    return mgmt_command(ctrl::MgmtCommand::kReplResync,
                        {{ctrl::reg::kReplBackendSelect, backend}},
                        "device rejected resync");
}

util::Result<std::uint64_t>
PfDriver::repl_wait_resync(std::uint32_t backend,
                           sim::Duration poll_interval,
                           std::uint64_t max_steps)
{
    for (std::uint64_t polls = 0; polls < max_steps; ++polls) {
        NESC_ASSIGN_OR_RETURN(const ReplBackendStatus status,
                              repl_backend_status(backend));
        if (status.state == 0)
            return polls;
        simulator_.advance(poll_interval);
    }
    return util::unavailable_error("replica resync did not converge");
}

bool
PfDriver::integrity_attached()
{
    auto ctl =
        reg_read(pcie::kPhysicalFunctionId, ctrl::reg::kIntegrityCtrl);
    return ctl.is_ok() && ctl.value() != ~std::uint64_t{0};
}

util::Status
PfDriver::set_integrity_enabled(bool enabled)
{
    if (!integrity_attached())
        return util::failed_precondition_error("no checksum sidecar attached");
    return reg_write(pcie::kPhysicalFunctionId, ctrl::reg::kIntegrityCtrl,
                     enabled ? 1 : 0);
}

util::Status
PfDriver::set_integrity_reread_limit(std::uint32_t limit)
{
    if (!integrity_attached())
        return util::failed_precondition_error("no checksum sidecar attached");
    return reg_write(pcie::kPhysicalFunctionId,
                     ctrl::reg::kIntegrityRereadLimit, limit);
}

util::Result<std::uint64_t>
PfDriver::integrity_mismatches()
{
    return reg_read(pcie::kPhysicalFunctionId,
                    ctrl::reg::kIntegrityMismatches);
}

util::Result<std::uint64_t>
PfDriver::integrity_repairs()
{
    return reg_read(pcie::kPhysicalFunctionId, ctrl::reg::kIntegrityRepairs);
}

util::Status
PfDriver::set_scrub_rate(std::uint64_t batch_blocks,
                         sim::Duration interval_ns)
{
    if (!integrity_attached())
        return util::failed_precondition_error("no checksum sidecar attached");
    NESC_RETURN_IF_ERROR(reg_write(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kScrubBatch, batch_blocks));
    return reg_write(pcie::kPhysicalFunctionId, ctrl::reg::kScrubIntervalNs,
                     static_cast<std::uint64_t>(interval_ns));
}

util::Status
PfDriver::scrub_start()
{
    return mgmt_command(ctrl::MgmtCommand::kScrubStart, {},
                        "device rejected scrub start");
}

util::Status
PfDriver::scrub_abort()
{
    return mgmt_command(ctrl::MgmtCommand::kScrubAbort, {},
                        "device rejected scrub abort");
}

util::Result<bool>
PfDriver::scrub_running()
{
    NESC_ASSIGN_OR_RETURN(
        std::uint64_t status,
        reg_read(pcie::kPhysicalFunctionId, ctrl::reg::kScrubStatus));
    if (status == ~std::uint64_t{0})
        return util::not_found_error("no checksum sidecar attached");
    return status != 0;
}

util::Result<std::uint64_t>
PfDriver::scrub_progress()
{
    return reg_read(pcie::kPhysicalFunctionId, ctrl::reg::kScrubProgress);
}

util::Result<std::uint64_t>
PfDriver::scrub_errors()
{
    return reg_read(pcie::kPhysicalFunctionId, ctrl::reg::kScrubErrors);
}

util::Result<std::uint64_t>
PfDriver::scrub_wait(sim::Duration poll_interval, std::uint64_t max_steps)
{
    for (std::uint64_t polls = 0; polls < max_steps; ++polls) {
        NESC_ASSIGN_OR_RETURN(const bool running, scrub_running());
        if (!running)
            return polls;
        simulator_.advance(poll_interval);
    }
    return util::unavailable_error("scrub pass did not complete");
}

util::Status
PfDriver::set_obs_window(sim::Duration window_ns)
{
    return reg_write(pcie::kPhysicalFunctionId, ctrl::reg::kObsWindowNs,
                     static_cast<std::uint64_t>(window_ns));
}

util::Status
PfDriver::set_slo(pcie::FunctionId fn, std::uint64_t max_p99_ns,
                  std::uint64_t max_error_ppm)
{
    if (!vfs_.contains(fn))
        return util::not_found_error("no such VF");
    return mgmt_command(ctrl::MgmtCommand::kSetSlo,
                        {{ctrl::reg::kMgmtVfId, fn},
                         {ctrl::reg::kSloMaxP99Ns, max_p99_ns},
                         {ctrl::reg::kSloMaxErrorPpm, max_error_ppm}},
                        "device rejected SLO update");
}

util::Result<SloWindow>
PfDriver::slo_window(pcie::FunctionId fn, std::uint32_t stage)
{
    const std::uint64_t select =
        (static_cast<std::uint64_t>(stage) << 16) |
        (static_cast<std::uint64_t>(fn) & 0xffff);
    NESC_RETURN_IF_ERROR(reg_write(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kSloSelect, select));
    SloWindow window;
    NESC_ASSIGN_OR_RETURN(window.p50,
                          reg_read(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kSloP50));
    if (window.p50 == ~std::uint64_t{0})
        return util::not_found_error(
            "SLO selection rejected by device (accounting off?)");
    NESC_ASSIGN_OR_RETURN(window.p99,
                          reg_read(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kSloP99));
    NESC_ASSIGN_OR_RETURN(window.p999,
                          reg_read(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kSloP999));
    NESC_ASSIGN_OR_RETURN(window.ops,
                          reg_read(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kSloWindowOps));
    NESC_ASSIGN_OR_RETURN(window.errors,
                          reg_read(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kSloWindowErrors));
    NESC_ASSIGN_OR_RETURN(window.window_start,
                          reg_read(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kSloWindowStart));
    return window;
}

util::Result<std::vector<SloBreachEntry>>
PfDriver::slo_breaches()
{
    NESC_ASSIGN_OR_RETURN(const std::uint64_t count,
                          reg_read(pcie::kPhysicalFunctionId,
                                   ctrl::reg::kSloBreachCount));
    std::vector<SloBreachEntry> entries;
    entries.reserve(count);
    for (std::uint64_t index = 0; index < count; ++index) {
        NESC_RETURN_IF_ERROR(reg_write(pcie::kPhysicalFunctionId,
                                       ctrl::reg::kSloBreachSelect,
                                       index));
        NESC_ASSIGN_OR_RETURN(const std::uint64_t info,
                              reg_read(pcie::kPhysicalFunctionId,
                                       ctrl::reg::kSloBreachInfo));
        if (info == ~std::uint64_t{0})
            return util::not_found_error(
                "breach selection rejected by device");
        SloBreachEntry entry;
        entry.fn = static_cast<std::uint16_t>(info & 0xffff);
        entry.metric = static_cast<std::uint8_t>((info >> 16) & 0xff);
        NESC_ASSIGN_OR_RETURN(entry.observed,
                              reg_read(pcie::kPhysicalFunctionId,
                                       ctrl::reg::kSloBreachObserved));
        NESC_ASSIGN_OR_RETURN(entry.threshold,
                              reg_read(pcie::kPhysicalFunctionId,
                                       ctrl::reg::kSloBreachThreshold));
        NESC_ASSIGN_OR_RETURN(entry.window_start,
                              reg_read(pcie::kPhysicalFunctionId,
                                       ctrl::reg::kSloBreachWindow));
        entries.push_back(entry);
    }
    return entries;
}

util::Status
PfDriver::clear_slo_breaches()
{
    return mgmt_command(ctrl::MgmtCommand::kSloBreachClear, {},
                        "device rejected breach clear");
}

util::Status
PfDriver::set_flight_recorder(bool enabled, std::uint64_t depth)
{
    if (depth != 0)
        NESC_RETURN_IF_ERROR(reg_write(pcie::kPhysicalFunctionId,
                                       ctrl::reg::kFlightDepth, depth));
    return reg_write(pcie::kPhysicalFunctionId, ctrl::reg::kFlightCtrl,
                     enabled ? 1 : 0);
}

util::Result<std::uint64_t>
PfDriver::postmortem_count()
{
    return reg_read(pcie::kPhysicalFunctionId,
                    ctrl::reg::kPostmortemCount);
}

util::Result<std::string>
PfDriver::dump_postmortem()
{
    static constexpr const char *kReasons[] = {
        "fault", "quarantine", "checksum_error", "replica_demotion"};
    static constexpr const char *kEventTypes[] = {"doorbell", "fetch",
                                                  "complete", "fault"};
    NESC_ASSIGN_OR_RETURN(const std::uint64_t count, postmortem_count());
    std::string out = "{\"postmortems\": [";
    char buf[192];
    for (std::uint64_t pm = 0; pm < count; ++pm) {
        NESC_RETURN_IF_ERROR(reg_write(pcie::kPhysicalFunctionId,
                                       ctrl::reg::kPostmortemSelect, pm));
        NESC_ASSIGN_OR_RETURN(const std::uint64_t info,
                              reg_read(pcie::kPhysicalFunctionId,
                                       ctrl::reg::kPostmortemInfo));
        if (info == ~std::uint64_t{0})
            return util::not_found_error(
                "postmortem selection rejected by device");
        NESC_ASSIGN_OR_RETURN(const std::uint64_t at,
                              reg_read(pcie::kPhysicalFunctionId,
                                       ctrl::reg::kPostmortemTime));
        const std::uint64_t fn = info & 0xffff;
        const std::uint64_t reason = (info >> 16) & 0xff;
        const std::uint64_t detail = (info >> 24) & 0xff;
        const std::uint64_t events = info >> 32;
        std::snprintf(buf, sizeof buf,
                      "%s{\"fn\": %llu, \"reason\": \"%s\", "
                      "\"at\": %llu, \"detail\": %llu, \"events\": [",
                      pm == 0 ? "" : ", ",
                      static_cast<unsigned long long>(fn),
                      reason < 4 ? kReasons[reason] : "unknown",
                      static_cast<unsigned long long>(at),
                      static_cast<unsigned long long>(detail));
        out += buf;
        for (std::uint64_t ev = 0; ev < events; ++ev) {
            NESC_RETURN_IF_ERROR(
                reg_write(pcie::kPhysicalFunctionId,
                          ctrl::reg::kPostmortemSelect, pm | (ev << 16)));
            NESC_ASSIGN_OR_RETURN(const std::uint64_t ev_at,
                                  reg_read(pcie::kPhysicalFunctionId,
                                           ctrl::reg::kPostmortemEventTime));
            NESC_ASSIGN_OR_RETURN(const std::uint64_t tag,
                                  reg_read(pcie::kPhysicalFunctionId,
                                           ctrl::reg::kPostmortemEventTag));
            NESC_ASSIGN_OR_RETURN(const std::uint64_t vlba,
                                  reg_read(pcie::kPhysicalFunctionId,
                                           ctrl::reg::kPostmortemEventVlba));
            NESC_ASSIGN_OR_RETURN(const std::uint64_t meta,
                                  reg_read(pcie::kPhysicalFunctionId,
                                           ctrl::reg::kPostmortemEventMeta));
            const std::uint64_t type = meta & 0xff;
            std::snprintf(buf, sizeof buf,
                          "%s{\"type\": \"%s\", \"at\": %llu, "
                          "\"tag\": %llu, \"vlba\": %llu, \"aux\": %llu}",
                          ev == 0 ? "" : ", ",
                          type < 4 ? kEventTypes[type] : "unknown",
                          static_cast<unsigned long long>(ev_at),
                          static_cast<unsigned long long>(tag),
                          static_cast<unsigned long long>(vlba),
                          static_cast<unsigned long long>(meta >> 8));
            out += buf;
        }
        out += "]}";
    }
    out += "]}";
    return out;
}

util::Status
PfDriver::clear_postmortems()
{
    return mgmt_command(ctrl::MgmtCommand::kPostmortemClear, {},
                        "device rejected postmortem clear");
}

util::Status
PfDriver::set_sampler_interval(sim::Duration interval_ns)
{
    return reg_write(pcie::kPhysicalFunctionId,
                     ctrl::reg::kSamplerIntervalNs,
                     static_cast<std::uint64_t>(interval_ns));
}

util::Result<std::size_t>
PfDriver::prune_vf_tree(pcie::FunctionId fn, std::uint64_t first_vblock,
                        std::uint64_t nblocks)
{
    auto it = trees_.find(fn);
    if (it == trees_.end())
        return util::not_found_error("no such VF");
    return it->second.prune_range(first_vblock, nblocks);
}

void
PfDriver::set_allocation_denied(pcie::FunctionId fn, bool denied)
{
    allocation_denied_[fn] = denied;
}

void
PfDriver::handle_fault_irq()
{
    simulator_.advance(config_.fault_service_cost);
    // Identify the faulting VF(s). Real hardware would provide a fault
    // status register; the scan over created VFs reads each MissSize.
    for (auto &[fn, info] : vfs_) {
        auto miss_size = reg_read(fn, ctrl::reg::kMissSize);
        if (!miss_size.is_ok() || miss_size.value() == 0)
            continue;
        util::Status serviced = service_fault(fn);
        if (!serviced.is_ok()) {
            NESC_LOG_WARN("fault service for VF %u failed: %s", fn,
                          serviced.to_string().c_str());
        }
    }
}

util::Status
PfDriver::service_fault(pcie::FunctionId fn)
{
    VfInfo &info = vfs_.at(fn);
    NESC_ASSIGN_OR_RETURN(std::uint64_t miss_addr,
                          reg_read(fn, ctrl::reg::kMissAddress));
    NESC_ASSIGN_OR_RETURN(std::uint64_t miss_size,
                          reg_read(fn, ctrl::reg::kMissSize));
    ++faults_serviced_;

    const std::uint64_t first_vblock = miss_addr / ctrl::kDeviceBlockSize;
    std::uint64_t nblocks =
        util::ceil_div(miss_size, ctrl::kDeviceBlockSize);

    NESC_ASSIGN_OR_RETURN(std::uint64_t fault_kind,
                          reg_read(fn, ctrl::reg::kFaultKind));
    if (static_cast<ctrl::FaultKind>(fault_kind) ==
        ctrl::FaultKind::kTreeCorrupt) {
        // The device hit garbage walking this VF's tree. No
        // allocation is missing; either hand the VF a clean tree and
        // rewalk, or reset the function and let its driver resubmit.
        ++tree_corrupt_serviced_;
        if (config_.media_error_policy == MediaErrorPolicy::kReset)
            return reg_write(fn, ctrl::reg::kFnReset, 1);
        NESC_RETURN_IF_ERROR(rebuild_tree(fn));
        return reg_write(fn, ctrl::reg::kRewalkTree, 1);
    }

    if (allocation_denied_[fn]) {
        // Quota exhausted: tell the device to fail the stalled writes
        // (Figure 5b's "cannot allocate" leg).
        // Modeled as a zero-valued RewalkTree write carrying failure;
        // the device exposes this via the mgmt fail path.
        return mgmt_post(ctrl::MgmtCommand::kFailMiss,
                         {{ctrl::reg::kMgmtVfId, fn}});
    }

    // Whether this is a write miss (unallocated) or a pruned-subtree
    // fault, the same service works: ensure the range is allocated in
    // the filesystem, then regenerate the device tree from FIEMAP.
    if (fs_ == nullptr)
        return util::failed_precondition_error("no filesystem attached");
    auto already = fs_->fiemap(info.backing_file);
    bool was_allocated = false;
    if (already.is_ok()) {
        auto ext = already.value();
        was_allocated =
            fs::map_lookup(ext, first_vblock).has_value();
    }
    if (was_allocated) {
        ++prune_faults_serviced_;
    } else {
        ++write_misses_serviced_;
        if (config_.allocation_batch_blocks > nblocks)
            nblocks = config_.allocation_batch_blocks;
        NESC_RETURN_IF_ERROR(fs_->allocate_range(info.backing_file,
                                                first_vblock, nblocks,
                                                /*zero_fill=*/false));
    }
    NESC_RETURN_IF_ERROR(rebuild_tree(fn));
    NESC_RETURN_IF_ERROR(reg_write(fn, ctrl::reg::kRewalkTree, 1));
    return util::Status::ok();
}

util::Status
PfDriver::rebuild_tree(pcie::FunctionId fn)
{
    // Shared trees rebuild once, at the owner, and every sharer's
    // root register is repointed (preserving tree consistency across
    // the sharing group, paper §IV.B).
    const pcie::FunctionId owner = tree_owner_.at(fn);
    VfInfo &info = vfs_.at(owner);
    if (fs_ == nullptr)
        return util::failed_precondition_error("no filesystem attached");
    NESC_ASSIGN_OR_RETURN(auto extents, fs_->fiemap(info.backing_file));
    NESC_ASSIGN_OR_RETURN(
        auto image,
        extent::ExtentTreeImage::build(host_memory_, extents, config_.tree));
    // Repoint every sharer through the PF mgmt block: the per-function
    // ExtentTreeRoot register is PF-page-only, and the mgmt command
    // also flushes the member's stale BTLB entries.
    for (const auto &[member, member_owner] : tree_owner_) {
        if (member_owner != owner)
            continue;
        NESC_RETURN_IF_ERROR(mgmt_command(
            ctrl::MgmtCommand::kSetExtentRoot,
            {{ctrl::reg::kMgmtVfId, member},
             {ctrl::reg::kMgmtExtentRoot, image.root()}},
            "device rejected extent-root update", util::internal_error));
    }
    auto it = trees_.find(owner);
    if (it != trees_.end()) {
        NESC_RETURN_IF_ERROR(it->second.destroy());
        it->second = std::move(image);
    } else {
        trees_.emplace(owner, std::move(image));
    }
    return util::Status::ok();
}

} // namespace nesc::drv
