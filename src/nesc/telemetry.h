/**
 * @file
 * Per-function statistics and the self-describing telemetry-counter
 * directory exposed through the PF-only reg::kTelemetry* registers.
 *
 * Each entry binds a stable counter name to a FunctionStats field; the
 * directory order IS the hardware counter index, so appending is ABI-
 * compatible and reordering is not. The name registers let software
 * discover the directory without a matching driver header — PfDriver's
 * dump_telemetry() reads count, then (name, value) per index, straight
 * over MMIO.
 */
#ifndef NESC_CTRL_TELEMETRY_H
#define NESC_CTRL_TELEMETRY_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace nesc::ctrl {

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


/** One telemetry directory entry. */
struct TelemetryCounterDesc {
    const char *name; ///< <= 24 ASCII chars (3 name registers)
    std::uint64_t FunctionStats::*field;
};

/** The directory: index in this array == hardware counter index. */
inline constexpr std::array<TelemetryCounterDesc, 18> kTelemetryCounters{{
    {"commands", &FunctionStats::commands},
    {"blocks_read", &FunctionStats::blocks_read},
    {"blocks_written", &FunctionStats::blocks_written},
    {"holes_zero_filled", &FunctionStats::holes_zero_filled},
    {"faults", &FunctionStats::faults},
    {"completions", &FunctionStats::completions},
    {"media_errors", &FunctionStats::media_errors},
    {"aborted_ops", &FunctionStats::aborted_ops},
    {"fn_resets", &FunctionStats::fn_resets},
    {"malformed", &FunctionStats::malformed},
    {"ring_corruptions", &FunctionStats::ring_corruptions},
    {"dma_violations", &FunctionStats::dma_violations},
    {"reg_violations", &FunctionStats::reg_violations},
    {"quarantines", &FunctionStats::quarantines},
    {"doorbells_ignored", &FunctionStats::doorbells_ignored},
    {"dead_doorbells", &FunctionStats::dead_doorbells},
    {"checksum_errors", &FunctionStats::checksum_errors},
    {"slo_breaches", &FunctionStats::slo_breaches},
}};

/**
 * Packs 8 ASCII chars of @p name starting at @p offset into a
 * little-endian register value (NUL-padded past the end).
 */
constexpr std::uint64_t
pack_telemetry_name(const char *name, std::size_t offset)
{
    std::size_t len = 0;
    while (name[len] != '\0')
        ++len;
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < 8; ++i) {
        const std::size_t pos = offset + i;
        if (pos < len)
            value |= static_cast<std::uint64_t>(
                         static_cast<unsigned char>(name[pos]))
                     << (8 * i);
    }
    return value;
}

} // namespace nesc::ctrl

#endif // NESC_CTRL_TELEMETRY_H
