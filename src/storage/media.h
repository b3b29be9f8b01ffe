/**
 * @file
 * The media behind the NeSC data-transfer unit.
 *
 * The controller moves every block between host memory and one Media:
 * a set of backends that each hold a full copy of the pLBA space. The
 * local device is the one-backend case (LocalMedia below); a replica
 * set (repl::ReplicaSet) is the many-backend case. The interface is
 * exactly what the data path and its integrity machinery need: a
 * routed read that reports which backend served, a read of one chosen
 * backend for the recovery ladder, a write, and the untimed per-backend
 * read and repair the background scrubber uses.
 *
 * Timing belongs to each implementation: the controller never asks
 * which kind of media it holds. Reads and writes take the staging
 * buffer by value and hand it back through the completion, so the
 * buffer rides the callback's inline storage instead of a shared
 * allocation.
 */
#ifndef NESC_STORAGE_MEDIA_H
#define NESC_STORAGE_MEDIA_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/callback.h"
#include "sim/simulator.h"
#include "storage/block_device.h"
#include "util/status.h"

namespace nesc::storage {

class IntegrityMap;

/** Per-op context the data-transfer unit hands the media. */
struct MediaOp {
    /** Event lane the completion runs on (implementations may ignore). */
    sim::LaneId lane = sim::Simulator::kDefaultLane;
    /**
     * The checksum sidecar covering the block, or nullptr when the op
     * is unchecked. A write records the payload's checksum through it
     * after the data write; the controller verifies reads itself.
     */
    IntegrityMap *sidecar = nullptr;
};

/** Block media of one or more backends; see file comment. */
class Media {
  public:
    /** Staging buffer moved through the media and back. */
    using Buffer = std::vector<std::byte>;
    /**
     * Read completion: status, the backend that served (-1 when none
     * did) and the staging buffer. The budget fits the controller's
     * block op plus its recovery-ladder position.
     */
    using ReadDone = sim::BasicCallback<112, util::Status, int, Buffer>;
    /** Status-only completion (writes). */
    using Done = sim::BasicCallback<112, util::Status>;

    Media() = default;
    virtual ~Media() = default;
    // Completions in flight hold the media's address.
    Media(const Media &) = delete;
    Media &operator=(const Media &) = delete;

    /** Backends, each holding a full copy; reads index [0, count). */
    virtual std::size_t backend_count() const = 0;

    /**
     * Routed read of whole blocks at @p first_block into @p buf. The
     * media picks the backend (failing over as it sees fit) and
     * reports it to @p done.
     */
    virtual void read(std::uint64_t first_block, Buffer buf,
                      const MediaOp &op, ReadDone done) = 0;

    /**
     * Read of backend @p index's copy, bypassing routing: the recovery
     * ladder's re-reads and alternate copies. @p done may run before
     * this returns (the local device answers inline).
     */
    virtual void read_from(std::size_t index, std::uint64_t first_block,
                           Buffer buf, ReadDone done) = 0;

    /**
     * Write of whole blocks at @p first_block; @p data is consumed
     * before this returns. Records through @p op's sidecar after the
     * data write; a failed write-through fails the write.
     */
    virtual void write(std::uint64_t first_block,
                       std::span<const std::byte> data, const MediaOp &op,
                       Done done) = 0;

    /** Untimed read of backend @p index's copy (the scrubber's). */
    virtual util::Status scrub_read(std::size_t index,
                                    std::uint64_t first_block,
                                    std::span<std::byte> out) = 0;

    /** Overwrites backend @p index's copy with verified-good data. */
    virtual util::Status repair_blocks(std::size_t index,
                                       std::uint64_t first_block,
                                       std::span<const std::byte> data) = 0;
};

/**
 * The local device as a one-backend Media. Reads and writes charge the
 * device's service time, plus @p checksum_cost when the op is checked,
 * and complete on the op's lane; read_from() answers inline and
 * untimed, like a re-read the checksum engine issues back to back.
 */
class LocalMedia final : public Media {
  public:
    LocalMedia(sim::Simulator &simulator, BlockDevice &device,
               sim::Duration checksum_cost)
        : simulator_(simulator), device_(device),
          block_bytes_(device.geometry().logical_block_size),
          checksum_cost_(checksum_cost)
    {
    }

    std::size_t backend_count() const override { return 1; }
    void read(std::uint64_t first_block, Buffer buf, const MediaOp &op,
              ReadDone done) override;
    void read_from(std::size_t index, std::uint64_t first_block, Buffer buf,
                   ReadDone done) override;
    void write(std::uint64_t first_block, std::span<const std::byte> data,
               const MediaOp &op, Done done) override;
    util::Status scrub_read(std::size_t index, std::uint64_t first_block,
                            std::span<std::byte> out) override;
    util::Status repair_blocks(std::size_t index, std::uint64_t first_block,
                               std::span<const std::byte> data) override;

  private:
    /** Fails OUT_OF_RANGE unless @p index names the one backend. */
    static util::Status check_index(std::size_t index);

    sim::Simulator &simulator_;
    BlockDevice &device_;
    std::uint64_t block_bytes_;
    sim::Duration checksum_cost_;
};

} // namespace nesc::storage

#endif // NESC_STORAGE_MEDIA_H
