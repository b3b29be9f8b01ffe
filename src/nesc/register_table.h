/**
 * @file
 * The register table: one row per register of a function's 4 KiB page
 * (paper §V, "Control registers"). A row states who may read the
 * register, who may write it and which optional block must be attached
 * for it to answer, and binds it to the controller state that produces
 * and applies its value:
 *
 *  - a controller latch (LATCH), or a counter of a controller unit;
 *  - a field of the accessing function's context (FIELD), or one of
 *    its FunctionStats counters (STAT), by member pointer;
 *  - a named handler (ON) for registers with side effects or
 *    selectors.
 *
 * This is the single statement of the PF/VF isolation boundary on the
 * page. Controller::mmio_read/mmio_write find the row in O(1), apply
 * its policy generically, then call its binding. Static asserts keep
 * the rows sorted and make a readable (writable) row without a reader
 * (writer) fail to compile. The bindings name private controller
 * members, so the rows are Controller::kRegisters; reg::kRegisterTable
 * is the view software reads. docs/REGISTERS.md is checked against it
 * by tests/test_registers.cc.
 */
#ifndef NESC_CTRL_REGISTER_TABLE_H
#define NESC_CTRL_REGISTER_TABLE_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "nesc/command.h"
#include "nesc/controller.h"
#include "repl/replica_set.h"

namespace nesc::ctrl::reg {

/** Which functions may perform an access through their own page. */
enum class Access : std::uint8_t {
    kNone, ///< not decoded: the access fails with invalid_argument
    kAny,  ///< the PF and every VF
    kPf,   ///< the PF only: a VF gets permission_denied
};

/**
 * Optional block a register belongs to. While the block is absent the
 * register master-aborts: reads return all-ones and writes are dropped,
 * so software feature-detects the block without faulting.
 */
enum class Gate : std::uint8_t {
    kAlways,
    kReplicas,  ///< needs an attached repl::ReplicaSet
    kIntegrity, ///< needs an attached storage::IntegrityMap
};

/**
 * One side of a row's binding, or nullptr for a side the register
 * lacks. `bound` lets the table be checked at compile time without
 * comparing member pointers, which UBSan builds cannot constant-fold.
 */
template <typename Call> struct Binding {
    constexpr Binding(std::nullptr_t = nullptr) {}
    constexpr Binding(Call member) : call(member), bound(true) {}
    Call call = nullptr;
    bool bound = false;
};

struct RegisterInfo {
    std::uint64_t offset;
    std::string_view name;
    Access read;
    Access write;
    Gate gate;
    /** Value of a read by the given function. */
    Binding<std::uint64_t (Controller::*)(pcie::FunctionId)> get = nullptr;
    /** Applies a write by the given function. */
    Binding<util::Status (Controller::*)(pcie::FunctionId, std::uint64_t)>
        set = nullptr;
};

} // namespace nesc::ctrl::reg

namespace nesc::ctrl {

// One row per register, sorted by offset; the name is the offset
// constant's without its `k`. The reader comes first, then the writer;
// a missing one is nullptr.
#define NESC_REG(name, read, write, gate, ...)                             \
    reg::RegisterInfo                                                      \
    {                                                                      \
        reg::k##name, #name, reg::Access::read, reg::Access::write,        \
            reg::Gate::gate, __VA_ARGS__                                   \
    }
#define LATCH(field) &Controller::latch<&Controller::field>
#define SET_LATCH(field, ...)                                              \
    &Controller::set_latch<&Controller::field __VA_OPT__(, ) __VA_ARGS__>
#define RW_LATCH(field) LATCH(field), SET_LATCH(field)
#define FIELD(field) &Controller::fn_field<&FunctionContext::field>
#define RW_FIELD(field)                                                    \
    FIELD(field), &Controller::set_fn_field<&FunctionContext::field>
#define STAT(counter) &Controller::fn_stat<&FunctionStats::counter>
#define UNIT(member, get) &Controller::unit<&Controller::member, &get>
#define SET_UNIT(member, set) &Controller::set_unit<&Controller::member, &set>
#define ENTRY(select, ...)                                                 \
    &Controller::selected<&Controller::select, __VA_ARGS__>
#define SET_ENTRY(select, ...)                                             \
    &Controller::set_pair<&Controller::select, __VA_ARGS__>
#define BACKEND(get) &Controller::repl_backend<&repl::ReplicaSet::get>
#define ON(...) &Controller::__VA_ARGS__
inline constexpr reg::RegisterInfo Controller::kRegisters[] = {
    // Per-function block. The tree root is hypervisor-owned: a guest
    // reads its own, only the PF page writes it. The ring bases and
    // the interrupt vector alias pair 0.
    NESC_REG(ExtentTreeRoot, kAny, kPf, kAlways, RW_FIELD(extent_tree_root)),
    NESC_REG(MissAddress, kAny, kNone, kAlways, FIELD(miss_address)),
    NESC_REG(MissSize, kAny, kNone, kAlways, FIELD(miss_size)),
    NESC_REG(RewalkTree, kNone, kAny, kAlways, nullptr,
             ON(trigger<&Controller::handle_rewalk>)),
    NESC_REG(CmdRingBase, kAny, kAny, kAlways,
             ENTRY(pair_zero, &Qp::sq_base, pcie::kNullHostAddr),
             SET_ENTRY(pair_zero, &Qp::sq_base)),
    NESC_REG(CompRingBase, kAny, kAny, kAlways,
             ENTRY(pair_zero, &Qp::cq_base, pcie::kNullHostAddr),
             SET_ENTRY(pair_zero, &Qp::cq_base)),
    NESC_REG(Doorbell, kNone, kAny, kAlways, nullptr, ON(write_doorbell)),
    NESC_REG(DeviceSize, kAny, kNone, kAlways, FIELD(device_size_blocks)),
    NESC_REG(InterruptVector, kAny, kAny, kAlways,
             ON(read_interrupt_vector), SET_ENTRY(pair_zero, &Qp::irq_vector)),
    NESC_REG(StatBlocksRead, kAny, kNone, kAlways, STAT(blocks_read)),
    NESC_REG(StatBlocksWritten, kAny, kNone, kAlways, STAT(blocks_written)),
    NESC_REG(StatFaults, kAny, kNone, kAlways, STAT(faults)),
    NESC_REG(QosWeight, kAny, kNone, kAlways, FIELD(qos_weight)),
    NESC_REG(WatchdogNs, kAny, kAny, kAlways, FIELD(watchdog_ns),
             ON(write_watchdog)),
    NESC_REG(FnReset, kNone, kAny, kAlways, nullptr,
             ON(trigger<&Controller::function_level_reset>)),
    NESC_REG(FaultKind, kAny, kNone, kAlways, FIELD(fault)),
    NESC_REG(StatAbortedOps, kAny, kNone, kAlways, STAT(aborted_ops)),
    NESC_REG(StatFnResets, kAny, kNone, kAlways, STAT(fn_resets)),
    // Management block.
    NESC_REG(MgmtVfId, kPf, kPf, kAlways, RW_LATCH(mgmt_vf_id_)),
    NESC_REG(MgmtExtentRoot, kPf, kPf, kAlways, RW_LATCH(mgmt_extent_root_)),
    NESC_REG(MgmtDeviceSize, kPf, kPf, kAlways, RW_LATCH(mgmt_device_size_)),
    NESC_REG(MgmtCommand, kNone, kPf, kAlways, nullptr,
             ON(write_mgmt_command)),
    NESC_REG(MgmtStatus, kPf, kNone, kAlways, LATCH(mgmt_status_)),
    NESC_REG(MgmtQosWeight, kPf, kPf, kAlways, RW_LATCH(mgmt_qos_weight_)),
    // Translation fast path, stats included: global cache occupancy is
    // a cross-VF side channel.
    NESC_REG(BtlbGeometry, kPf, kPf, kAlways, ON(read_btlb_geometry),
             ON(write_btlb_geometry)),
    NESC_REG(StatBtlbHits, kPf, kNone, kAlways, UNIT(btlb_, Btlb::hits)),
    NESC_REG(StatBtlbMisses, kPf, kNone, kAlways, UNIT(btlb_, Btlb::misses)),
    NESC_REG(NodeCacheBytes, kPf, kPf, kAlways,
             UNIT(node_cache_, ExtentNodeCache::budget_bytes),
             SET_UNIT(node_cache_, ExtentNodeCache::set_budget)),
    NESC_REG(StatNodeCacheHits, kPf, kNone, kAlways,
             UNIT(node_cache_, ExtentNodeCache::hits)),
    NESC_REG(StatNodeCacheMisses, kPf, kNone, kAlways,
             UNIT(node_cache_, ExtentNodeCache::misses)),
    NESC_REG(WalkCoalesce, kPf, kPf, kAlways,
             RW_LATCH(walk_coalesce_window_)),
    NESC_REG(StatWalkCoalesced, kPf, kNone, kAlways,
             ON(metric<&Controller::h_walk_coalesced_>)),
    NESC_REG(StatWalkReplays, kPf, kNone, kAlways,
             ON(metric<&Controller::h_walk_replays_>)),
    // Containment: a function sees its own quarantine state and
    // misbehaviour counters; the knobs that drive them are the PF's.
    NESC_REG(QuarantineStatus, kAny, kNone, kAlways, FIELD(quarantined)),
    NESC_REG(QuarantineCause, kAny, kNone, kAlways, FIELD(quarantine_cause)),
    NESC_REG(StatMalformed, kAny, kNone, kAlways, STAT(malformed)),
    NESC_REG(StatDmaViolations, kAny, kNone, kAlways, STAT(dma_violations)),
    NESC_REG(StatRegViolations, kAny, kNone, kAlways, STAT(reg_violations)),
    NESC_REG(DmaWindowBase, kPf, kPf, kAlways, RW_LATCH(dma_window_base_)),
    NESC_REG(DmaWindowSize, kPf, kPf, kAlways, RW_LATCH(dma_window_size_)),
    NESC_REG(QuarantineThreshold, kPf, kPf, kAlways,
             RW_LATCH(quarantine_threshold_)),
    NESC_REG(QuarantineWindowNs, kPf, kPf, kAlways,
             RW_LATCH(quarantine_window_)),
    // Telemetry directory: other functions' counters are a side channel.
    NESC_REG(TelemetrySelect, kPf, kPf, kAlways, RW_LATCH(telemetry_select_)),
    NESC_REG(TelemetryValue, kPf, kNone, kAlways, ON(read_telemetry_value)),
    NESC_REG(TelemetryCount, kPf, kNone, kAlways, ON(read_telemetry_count)),
    NESC_REG(TelemetryName0, kPf, kNone, kAlways, ON(telemetry_name<0>)),
    NESC_REG(TelemetryName1, kPf, kNone, kAlways, ON(telemetry_name<1>)),
    NESC_REG(TelemetryName2, kPf, kNone, kAlways, ON(telemetry_name<2>)),
    // Replication.
    NESC_REG(ReplQuorum, kPf, kPf, kReplicas,
             ON(repl_config<&repl::ReplicaSetConfig::quorum>),
             SET_UNIT(replicas_, repl::ReplicaSet::set_quorum)),
    NESC_REG(ReplReadTimeoutNs, kPf, kPf, kReplicas,
             ON(repl_config<&repl::ReplicaSetConfig::read_timeout>),
             SET_UNIT(replicas_, repl::ReplicaSet::set_read_timeout)),
    NESC_REG(ReplBackendSelect, kPf, kPf, kReplicas,
             RW_LATCH(repl_backend_select_)),
    NESC_REG(ReplBackendState, kPf, kNone, kReplicas, BACKEND(backend_state)),
    NESC_REG(ReplBackendDirty, kPf, kNone, kReplicas, BACKEND(dirty_blocks)),
    NESC_REG(ReplBackendTimeouts, kPf, kNone, kReplicas,
             BACKEND(backend_timeouts)),
    NESC_REG(ReplBackendErrors, kPf, kNone, kReplicas,
             BACKEND(backend_errors)),
    NESC_REG(ReplResyncDone, kPf, kNone, kReplicas, BACKEND(resync_copied)),
    NESC_REG(ReplFailovers, kPf, kNone, kReplicas,
             UNIT(replicas_, repl::ReplicaSet::failovers)),
    // Queue-pair admin: driver-owned, on the function's own page. The
    // staged values read back from the selected pair, all-ones if none.
    NESC_REG(QpSelect, kAny, kAny, kAlways, RW_FIELD(qp_select)),
    NESC_REG(QpSqBase, kAny, kAny, kAlways,
             ENTRY(selected_pair, &Qp::sq_base),
             SET_ENTRY(selected_pair, &Qp::sq_base,
                       &FunctionContext::qp_sq_latch)),
    NESC_REG(QpCqBase, kAny, kAny, kAlways,
             ENTRY(selected_pair, &Qp::cq_base),
             SET_ENTRY(selected_pair, &Qp::cq_base,
                       &FunctionContext::qp_cq_latch)),
    NESC_REG(QpIrqVector, kAny, kAny, kAlways,
             ENTRY(selected_pair, &Qp::irq_vector),
             SET_ENTRY(selected_pair, &Qp::irq_vector,
                       &FunctionContext::qp_irq_latch)),
    NESC_REG(QpCommand, kNone, kAny, kAlways, nullptr, ON(write_qp_command)),
    NESC_REG(QpStatus, kAny, kNone, kAlways, FIELD(qp_status)),
    NESC_REG(QpCount, kAny, kNone, kAlways, ON(read_qp_count)),
    NESC_REG(QpQuota, kAny, kNone, kAlways, FIELD(qp_quota)),
    // Arbitration and the per-VF scheduling staging registers. Quantum
    // 0 would make DWRR turns grant nothing.
    NESC_REG(ArbMode, kPf, kPf, kAlways, LATCH(arb_mode_), ON(write_arb_mode)),
    NESC_REG(ArbQuantum, kPf, kPf, kAlways, LATCH(arb_quantum_),
             SET_LATCH(arb_quantum_, Take::kAtLeast1)),
    NESC_REG(MgmtQpQuota, kPf, kPf, kAlways, RW_LATCH(mgmt_qp_quota_)),
    NESC_REG(MgmtRateBytesPerSec, kPf, kPf, kAlways,
             RW_LATCH(mgmt_rate_bps_)),
    NESC_REG(MgmtRateBurstBytes, kPf, kPf, kAlways,
             RW_LATCH(mgmt_rate_burst_)),
    // Integrity and scrub; a function sees its own checksum errors
    // whether or not a sidecar is attached. A zero scrub batch would
    // make scrub ticks spin forever.
    NESC_REG(IntegrityCtrl, kPf, kPf, kIntegrity, LATCH(integrity_enabled_),
             SET_LATCH(integrity_enabled_, Take::kBit0)),
    NESC_REG(IntegrityRereadLimit, kPf, kPf, kIntegrity,
             RW_LATCH(integrity_reread_limit_)),
    NESC_REG(IntegrityMismatches, kPf, kNone, kIntegrity,
             LATCH(integrity_mismatches_)),
    NESC_REG(IntegrityRepairs, kPf, kNone, kIntegrity,
             LATCH(integrity_repairs_)),
    NESC_REG(ScrubBatch, kPf, kPf, kIntegrity, LATCH(scrub_batch_),
             SET_LATCH(scrub_batch_, Take::kAtLeast1)),
    NESC_REG(ScrubIntervalNs, kPf, kPf, kIntegrity, RW_LATCH(scrub_interval_)),
    NESC_REG(ScrubStatus, kPf, kNone, kIntegrity, LATCH(scrub_running_)),
    NESC_REG(ScrubProgress, kPf, kNone, kIntegrity, LATCH(scrub_progress_)),
    NESC_REG(ScrubErrors, kPf, kNone, kIntegrity, LATCH(scrub_errors_)),
    NESC_REG(StatChecksumErrors, kAny, kNone, kAlways, STAT(checksum_errors)),
    // Observability: other tenants' latency is a side channel. Window
    // registers read all-ones while windowed accounting is off; the
    // breach and postmortem directories stay readable so forensics
    // survive turning the plane back off.
    NESC_REG(ObsWindowNs, kPf, kPf, kAlways, LATCH(obs_window_ns_),
             ON(write_obs_window)),
    NESC_REG(SloMaxP99Ns, kPf, kPf, kAlways, RW_LATCH(slo_max_p99_ns_)),
    NESC_REG(SloMaxErrorPpm, kPf, kPf, kAlways,
             RW_LATCH(slo_max_error_ppm_)),
    NESC_REG(SloSelect, kPf, kPf, kAlways, RW_LATCH(slo_select_)),
    NESC_REG(SloP50, kPf, kNone, kAlways, ON(slo_percentile<500>)),
    NESC_REG(SloP99, kPf, kNone, kAlways, ON(slo_percentile<990>)),
    NESC_REG(SloP999, kPf, kNone, kAlways, ON(slo_percentile<999>)),
    NESC_REG(SloWindowOps, kPf, kNone, kAlways,
             ON(slo_window_count<&obs::SloWatch::window_ops>)),
    NESC_REG(SloWindowErrors, kPf, kNone, kAlways,
             ON(slo_window_count<&obs::SloWatch::window_errors>)),
    NESC_REG(SloWindowStart, kPf, kNone, kAlways,
             ON(slo_window_count<&obs::SloWatch::window_start>)),
    NESC_REG(SloBreachCount, kPf, kNone, kAlways, ON(read_slo_breach_count)),
    NESC_REG(SloBreachSelect, kPf, kPf, kAlways,
             RW_LATCH(slo_breach_select_)),
    NESC_REG(SloBreachInfo, kPf, kNone, kAlways,
             ENTRY(selected_breach, &Controller::slo_breach_info)),
    NESC_REG(SloBreachObserved, kPf, kNone, kAlways,
             ENTRY(selected_breach, &obs::SloBreach::observed)),
    NESC_REG(SloBreachThreshold, kPf, kNone, kAlways,
             ENTRY(selected_breach, &obs::SloBreach::threshold)),
    NESC_REG(SloBreachWindow, kPf, kNone, kAlways,
             ENTRY(selected_breach, &obs::SloBreach::window_start)),
    NESC_REG(FlightCtrl, kPf, kPf, kAlways,
             UNIT(flight_, obs::FlightRecorder::enabled),
             ON(write_flight_ctrl)),
    // Applied at the next enable; a depth of 0 is ignored.
    NESC_REG(FlightDepth, kPf, kPf, kAlways, LATCH(flight_depth_),
             SET_LATCH(flight_depth_, Take::kNonZero)),
    NESC_REG(PostmortemCount, kPf, kNone, kAlways,
             ON(read_postmortem_count)),
    NESC_REG(PostmortemSelect, kPf, kPf, kAlways,
             RW_LATCH(postmortem_select_)),
    NESC_REG(PostmortemInfo, kPf, kNone, kAlways,
             ENTRY(selected_postmortem, &Controller::postmortem_info)),
    NESC_REG(PostmortemTime, kPf, kNone, kAlways,
             ENTRY(selected_postmortem, &obs::Postmortem::at)),
    NESC_REG(PostmortemEventTime, kPf, kNone, kAlways,
             ENTRY(selected_event, &obs::FlightEvent::at)),
    NESC_REG(PostmortemEventTag, kPf, kNone, kAlways,
             ENTRY(selected_event, &obs::FlightEvent::tag)),
    NESC_REG(PostmortemEventVlba, kPf, kNone, kAlways,
             ENTRY(selected_event, &obs::FlightEvent::vlba)),
    NESC_REG(PostmortemEventMeta, kPf, kNone, kAlways,
             ENTRY(selected_event, &Controller::postmortem_event_meta)),
    NESC_REG(SamplerIntervalNs, kPf, kPf, kAlways, LATCH(sampler_interval_),
             ON(write_sampler_interval)),
    NESC_REG(SamplerCount, kPf, kNone, kAlways,
             UNIT(sampler_, obs::TimeSeriesSampler::size)),
};
#undef ON
#undef BACKEND
#undef SET_UNIT
#undef UNIT
#undef STAT
#undef SET_ENTRY
#undef ENTRY
#undef RW_FIELD
#undef FIELD
#undef RW_LATCH
#undef SET_LATCH
#undef LATCH
#undef NESC_REG

namespace reg {

/** The register table, as software and tests read it. */
inline constexpr std::span kRegisterTable{Controller::kRegisters};

static_assert(std::ranges::all_of(kRegisterTable,
                                  [](const RegisterInfo &r) {
                                      return r.offset % 4 == 0 &&
                                             r.offset < kQpDoorbell0;
                                  }) &&
                  std::ranges::adjacent_find(kRegisterTable,
                                             std::ranges::greater_equal{},
                                             &RegisterInfo::offset) ==
                      kRegisterTable.end(),
              "register table must be sorted, with unique 4-byte-aligned "
              "offsets below the doorbell aperture");

static_assert(std::ranges::all_of(kRegisterTable,
                                  [](const RegisterInfo &r) {
                                      return (r.read != Access::kNone) ==
                                                 r.get.bound &&
                                             (r.write != Access::kNone) ==
                                                 r.set.bound;
                                  }),
              "a register is readable (writable) exactly when its row "
              "binds a reader (writer)");

/** kRegisterIndex value for an offset where no register starts. */
inline constexpr std::uint8_t kNoRegister = 0xff;
static_assert(kRegisterTable.size() < kNoRegister);

/** Row of the register at each 4-byte slot (offset / 4), or kNoRegister. */
inline constexpr auto kRegisterIndex = [] {
    std::array<std::uint8_t, kRegisterTable.back().offset / 4 + 1> index{};
    index.fill(kNoRegister);
    for (std::size_t i = 0; i < kRegisterTable.size(); ++i)
        index[kRegisterTable[i].offset / 4] = static_cast<std::uint8_t>(i);
    return index;
}();

/** O(1) decode: the row of the register at @p offset, or nullptr. */
constexpr const RegisterInfo *
find_register(std::uint64_t offset)
{
    if (offset % 4 != 0 || offset / 4 >= kRegisterIndex.size())
        return nullptr;
    const std::uint8_t row = kRegisterIndex[offset / 4];
    return row == kNoRegister ? nullptr : &kRegisterTable[row];
}

} // namespace reg
} // namespace nesc::ctrl

#endif // NESC_CTRL_REGISTER_TABLE_H
