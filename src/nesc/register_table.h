/**
 * @file
 * The register table: one row per register of a function's 4 KiB page
 * (paper §V, "Control registers"), stating who may read it, who may
 * write it, and which optional block must be attached for it to answer.
 *
 * This is the single statement of the PF/VF isolation boundary on the
 * page. Controller::mmio_read/mmio_write look the row up first and
 * apply the policy generically; their per-register code only produces
 * or applies values. docs/REGISTERS.md is checked against this table
 * by tests/test_registers.cc.
 */
#ifndef NESC_CTRL_REGISTER_TABLE_H
#define NESC_CTRL_REGISTER_TABLE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "nesc/command.h"

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

struct RegisterInfo {
    std::uint64_t offset;
    std::string_view name;
    Access read;
    Access write;
    Gate gate;
};

// One row per register, sorted by offset; the name is the offset
// constant's without its `k`.
#define NESC_REG(name, read, write, gate)                                  \
    RegisterInfo                                                           \
    {                                                                      \
        k##name, #name, Access::read, Access::write, Gate::gate            \
    }
inline constexpr std::array kRegisterTable = {
    // Per-function block. The tree root is hypervisor-owned: a guest
    // reads its own, only the PF page writes it.
    NESC_REG(ExtentTreeRoot, kAny, kPf, kAlways),
    NESC_REG(MissAddress, kAny, kNone, kAlways),
    NESC_REG(MissSize, kAny, kNone, kAlways),
    NESC_REG(RewalkTree, kNone, kAny, kAlways),
    NESC_REG(CmdRingBase, kAny, kAny, kAlways),
    NESC_REG(CompRingBase, kAny, kAny, kAlways),
    NESC_REG(Doorbell, kNone, kAny, kAlways),
    NESC_REG(DeviceSize, kAny, kNone, kAlways),
    NESC_REG(InterruptVector, kAny, kAny, kAlways),
    NESC_REG(StatBlocksRead, kAny, kNone, kAlways),
    NESC_REG(StatBlocksWritten, kAny, kNone, kAlways),
    NESC_REG(StatFaults, kAny, kNone, kAlways),
    NESC_REG(QosWeight, kAny, kNone, kAlways),
    NESC_REG(WatchdogNs, kAny, kAny, kAlways),
    NESC_REG(FnReset, kNone, kAny, kAlways),
    NESC_REG(FaultKind, kAny, kNone, kAlways),
    NESC_REG(StatAbortedOps, kAny, kNone, kAlways),
    NESC_REG(StatFnResets, kAny, kNone, kAlways),
    // Management block.
    NESC_REG(MgmtVfId, kPf, kPf, kAlways),
    NESC_REG(MgmtExtentRoot, kPf, kPf, kAlways),
    NESC_REG(MgmtDeviceSize, kPf, kPf, kAlways),
    NESC_REG(MgmtCommand, kNone, kPf, kAlways),
    NESC_REG(MgmtStatus, kPf, kNone, kAlways),
    NESC_REG(MgmtQosWeight, kPf, kPf, kAlways),
    // Translation fast path, stats included: global cache occupancy is
    // a cross-VF side channel.
    NESC_REG(BtlbGeometry, kPf, kPf, kAlways),
    NESC_REG(StatBtlbHits, kPf, kNone, kAlways),
    NESC_REG(StatBtlbMisses, kPf, kNone, kAlways),
    NESC_REG(NodeCacheBytes, kPf, kPf, kAlways),
    NESC_REG(StatNodeCacheHits, kPf, kNone, kAlways),
    NESC_REG(StatNodeCacheMisses, kPf, kNone, kAlways),
    NESC_REG(WalkCoalesce, kPf, kPf, kAlways),
    NESC_REG(StatWalkCoalesced, kPf, kNone, kAlways),
    NESC_REG(StatWalkReplays, kPf, kNone, kAlways),
    // Containment: a function sees its own quarantine state and
    // misbehaviour counters; the knobs that drive them are the PF's.
    NESC_REG(QuarantineStatus, kAny, kNone, kAlways),
    NESC_REG(QuarantineCause, kAny, kNone, kAlways),
    NESC_REG(StatMalformed, kAny, kNone, kAlways),
    NESC_REG(StatDmaViolations, kAny, kNone, kAlways),
    NESC_REG(StatRegViolations, kAny, kNone, kAlways),
    NESC_REG(DmaWindowBase, kPf, kPf, kAlways),
    NESC_REG(DmaWindowSize, kPf, kPf, kAlways),
    NESC_REG(QuarantineThreshold, kPf, kPf, kAlways),
    NESC_REG(QuarantineWindowNs, kPf, kPf, kAlways),
    // Telemetry directory: other functions' counters are a side channel.
    NESC_REG(TelemetrySelect, kPf, kPf, kAlways),
    NESC_REG(TelemetryValue, kPf, kNone, kAlways),
    NESC_REG(TelemetryCount, kPf, kNone, kAlways),
    NESC_REG(TelemetryName0, kPf, kNone, kAlways),
    NESC_REG(TelemetryName1, kPf, kNone, kAlways),
    NESC_REG(TelemetryName2, kPf, kNone, kAlways),
    // Replication.
    NESC_REG(ReplQuorum, kPf, kPf, kReplicas),
    NESC_REG(ReplReadTimeoutNs, kPf, kPf, kReplicas),
    NESC_REG(ReplBackendSelect, kPf, kPf, kReplicas),
    NESC_REG(ReplBackendState, kPf, kNone, kReplicas),
    NESC_REG(ReplBackendDirty, kPf, kNone, kReplicas),
    NESC_REG(ReplBackendTimeouts, kPf, kNone, kReplicas),
    NESC_REG(ReplBackendErrors, kPf, kNone, kReplicas),
    NESC_REG(ReplResyncDone, kPf, kNone, kReplicas),
    NESC_REG(ReplFailovers, kPf, kNone, kReplicas),
    // Queue-pair admin: driver-owned, on the function's own page.
    NESC_REG(QpSelect, kAny, kAny, kAlways),
    NESC_REG(QpSqBase, kAny, kAny, kAlways),
    NESC_REG(QpCqBase, kAny, kAny, kAlways),
    NESC_REG(QpIrqVector, kAny, kAny, kAlways),
    NESC_REG(QpCommand, kNone, kAny, kAlways),
    NESC_REG(QpStatus, kAny, kNone, kAlways),
    NESC_REG(QpCount, kAny, kNone, kAlways),
    NESC_REG(QpQuota, kAny, kNone, kAlways),
    // Arbitration and the per-VF scheduling staging registers.
    NESC_REG(ArbMode, kPf, kPf, kAlways),
    NESC_REG(ArbQuantum, kPf, kPf, kAlways),
    NESC_REG(MgmtQpQuota, kPf, kPf, kAlways),
    NESC_REG(MgmtRateBytesPerSec, kPf, kPf, kAlways),
    NESC_REG(MgmtRateBurstBytes, kPf, kPf, kAlways),
    // Integrity and scrub; a function sees its own checksum errors
    // whether or not a sidecar is attached.
    NESC_REG(IntegrityCtrl, kPf, kPf, kIntegrity),
    NESC_REG(IntegrityRereadLimit, kPf, kPf, kIntegrity),
    NESC_REG(IntegrityMismatches, kPf, kNone, kIntegrity),
    NESC_REG(IntegrityRepairs, kPf, kNone, kIntegrity),
    NESC_REG(ScrubBatch, kPf, kPf, kIntegrity),
    NESC_REG(ScrubIntervalNs, kPf, kPf, kIntegrity),
    NESC_REG(ScrubStatus, kPf, kNone, kIntegrity),
    NESC_REG(ScrubProgress, kPf, kNone, kIntegrity),
    NESC_REG(ScrubErrors, kPf, kNone, kIntegrity),
    NESC_REG(StatChecksumErrors, kAny, kNone, kAlways),
    // Observability: other tenants' latency is a side channel.
    NESC_REG(ObsWindowNs, kPf, kPf, kAlways),
    NESC_REG(SloMaxP99Ns, kPf, kPf, kAlways),
    NESC_REG(SloMaxErrorPpm, kPf, kPf, kAlways),
    NESC_REG(SloSelect, kPf, kPf, kAlways),
    NESC_REG(SloP50, kPf, kNone, kAlways),
    NESC_REG(SloP99, kPf, kNone, kAlways),
    NESC_REG(SloP999, kPf, kNone, kAlways),
    NESC_REG(SloWindowOps, kPf, kNone, kAlways),
    NESC_REG(SloWindowErrors, kPf, kNone, kAlways),
    NESC_REG(SloWindowStart, kPf, kNone, kAlways),
    NESC_REG(SloBreachCount, kPf, kNone, kAlways),
    NESC_REG(SloBreachSelect, kPf, kPf, kAlways),
    NESC_REG(SloBreachInfo, kPf, kNone, kAlways),
    NESC_REG(SloBreachObserved, kPf, kNone, kAlways),
    NESC_REG(SloBreachThreshold, kPf, kNone, kAlways),
    NESC_REG(SloBreachWindow, kPf, kNone, kAlways),
    NESC_REG(FlightCtrl, kPf, kPf, kAlways),
    NESC_REG(FlightDepth, kPf, kPf, kAlways),
    NESC_REG(PostmortemCount, kPf, kNone, kAlways),
    NESC_REG(PostmortemSelect, kPf, kPf, kAlways),
    NESC_REG(PostmortemInfo, kPf, kNone, kAlways),
    NESC_REG(PostmortemTime, kPf, kNone, kAlways),
    NESC_REG(PostmortemEventTime, kPf, kNone, kAlways),
    NESC_REG(PostmortemEventTag, kPf, kNone, kAlways),
    NESC_REG(PostmortemEventVlba, kPf, kNone, kAlways),
    NESC_REG(PostmortemEventMeta, kPf, kNone, kAlways),
    NESC_REG(SamplerIntervalNs, kPf, kPf, kAlways),
    NESC_REG(SamplerCount, kPf, kNone, kAlways),
};
#undef NESC_REG

constexpr bool
register_table_well_formed()
{
    for (std::size_t i = 0; i < kRegisterTable.size(); ++i) {
        if (kRegisterTable[i].offset % 4 != 0 ||
            kRegisterTable[i].offset >= kQpDoorbell0)
            return false;
        if (i > 0 && kRegisterTable[i - 1].offset >= kRegisterTable[i].offset)
            return false;
    }
    return true;
}
static_assert(register_table_well_formed(),
              "register table must be sorted, with unique 4-byte-aligned "
              "offsets below the doorbell aperture");

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

} // namespace nesc::ctrl::reg

#endif // NESC_CTRL_REGISTER_TABLE_H
