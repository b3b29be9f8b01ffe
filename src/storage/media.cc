#include "media.h"

#include "storage/integrity_map.h"

namespace nesc::storage {

util::Status
LocalMedia::check_index(std::size_t index)
{
    return index == 0 ? util::Status::ok()
                      : util::out_of_range_error("no such backend");
}

void
LocalMedia::read(std::uint64_t first_block, Buffer buf, const MediaOp &op,
                 ReadDone done)
{
    const sim::Time t_done =
        device_.service_read(simulator_.now(), first_block * block_bytes_,
                             buf.size()) +
        (op.sidecar != nullptr ? checksum_cost_ : 0);
    simulator_.schedule_at_lane(
        op.lane, t_done,
        [this, first_block, buf = std::move(buf),
         done = std::move(done)]() mutable {
            util::Status status =
                device_.read(first_block * block_bytes_, buf);
            const int backend = status.is_ok() ? 0 : -1;
            done(std::move(status), backend, std::move(buf));
        });
}

void
LocalMedia::read_from(std::size_t index, std::uint64_t first_block,
                      Buffer buf, ReadDone done)
{
    util::Status status = check_index(index);
    if (status.is_ok())
        status = device_.read(first_block * block_bytes_, buf);
    const int backend = status.is_ok() ? 0 : -1;
    done(std::move(status), backend, std::move(buf));
}

void
LocalMedia::write(std::uint64_t first_block, std::span<const std::byte> data,
                  const MediaOp &op, Done done)
{
    // Data first, then the checksum of the payload the guest intended:
    // damage the media inflicts after this point (bitrot) is what the
    // verifying read path must catch.
    util::Status status = device_.write(first_block * block_bytes_, data);
    if (status.is_ok() && op.sidecar != nullptr)
        status = op.sidecar->record(first_block, data);
    const sim::Time t_done =
        device_.service_write(simulator_.now(), first_block * block_bytes_,
                              data.size()) +
        (op.sidecar != nullptr ? checksum_cost_ : 0);
    simulator_.schedule_at_lane(
        op.lane, t_done,
        [status = std::move(status), done = std::move(done)]() mutable {
            done(std::move(status));
        });
}

util::Status
LocalMedia::scrub_read(std::size_t index, std::uint64_t first_block,
                       std::span<std::byte> out)
{
    NESC_RETURN_IF_ERROR(check_index(index));
    return device_.read(first_block * block_bytes_, out);
}

util::Status
LocalMedia::repair_blocks(std::size_t index, std::uint64_t first_block,
                          std::span<const std::byte> data)
{
    NESC_RETURN_IF_ERROR(check_index(index));
    return device_.write(first_block * block_bytes_, data);
}

} // namespace nesc::storage
