#include "storage/integrity_map.h"

#include <algorithm>
#include <cstring>

#include "util/crc32c.h"
#include "util/units.h"

namespace nesc::storage {

namespace {

std::uint32_t
header_crc(IntegrityHeader header)
{
    header.header_crc = 0;
    return util::crc32c(&header, sizeof(header));
}

} // namespace

IntegrityMap::IntegrityMap(BlockDevice &device, std::uint64_t data_blocks)
    : device_(device), data_blocks_(data_blocks),
      block_size_(device.geometry().logical_block_size),
      table_(data_blocks, 0), staging_(block_size_)
{
}

std::uint64_t
IntegrityMap::sidecar_blocks(std::uint64_t data_blocks,
                             std::uint32_t block_size)
{
    return 1 + util::ceil_div(data_blocks * sizeof(std::uint32_t),
                              static_cast<std::uint64_t>(block_size));
}

util::Result<std::unique_ptr<IntegrityMap>>
IntegrityMap::format(BlockDevice &device, std::uint64_t data_blocks)
{
    const std::uint32_t bs = device.geometry().logical_block_size;
    const std::uint64_t need =
        data_blocks + sidecar_blocks(data_blocks, bs);
    if (need > device.geometry().num_blocks())
        return util::invalid_argument_error(
            "media too small for integrity sidecar");

    auto map = std::unique_ptr<IntegrityMap>(
        new IntegrityMap(device, data_blocks));
    std::vector<std::byte> block(bs);
    for (std::uint64_t plba = 0; plba < data_blocks; ++plba) {
        NESC_RETURN_IF_ERROR(
            device.read(plba * bs, std::span<std::byte>(block)));
        map->table_[plba] = util::crc32c(block.data(), block.size());
    }
    NESC_RETURN_IF_ERROR(map->write_header());
    for (std::uint64_t plba = 0; plba < data_blocks;
         plba += map->entries_per_block())
        NESC_RETURN_IF_ERROR(map->write_table_block(plba));
    return map;
}

util::Result<std::unique_ptr<IntegrityMap>>
IntegrityMap::load(BlockDevice &device, std::uint64_t data_blocks)
{
    const std::uint32_t bs = device.geometry().logical_block_size;
    std::vector<std::byte> block(bs);
    NESC_RETURN_IF_ERROR(
        device.read(data_blocks * bs, std::span<std::byte>(block)));
    IntegrityHeader header;
    std::memcpy(&header, block.data(), sizeof(header));
    if (header.magic != kMagic || header.version != kVersion)
        return util::data_loss_error("bad integrity sidecar header");
    if (header.block_size != bs || header.data_blocks != data_blocks)
        return util::data_loss_error("integrity sidecar geometry mismatch");
    if (header.header_crc != header_crc(header))
        return util::data_loss_error("integrity sidecar header CRC");

    auto map = std::unique_ptr<IntegrityMap>(
        new IntegrityMap(device, data_blocks));
    const std::uint32_t per_block = map->entries_per_block();
    for (std::uint64_t first = 0; first < data_blocks;
         first += per_block) {
        const std::uint64_t table_block =
            data_blocks + 1 + first / per_block;
        NESC_RETURN_IF_ERROR(device.read(table_block * bs,
                                         std::span<std::byte>(block)));
        const std::uint64_t count =
            std::min<std::uint64_t>(per_block, data_blocks - first);
        std::memcpy(map->table_.data() + first, block.data(),
                    count * sizeof(std::uint32_t));
    }
    return map;
}

std::uint32_t
IntegrityMap::expected(std::uint64_t plba) const
{
    return covers(plba) ? table_[plba] : 0;
}

util::Status
IntegrityMap::record(std::uint64_t plba, std::span<const std::byte> data)
{
    if (!covers(plba))
        return util::Status::ok();
    if (data.size() != block_size_)
        return util::invalid_argument_error(
            "integrity record must be one block");
    table_[plba] = util::crc32c(data.data(), data.size());
    ++records_;
    return write_table_block(plba);
}

bool
IntegrityMap::verify(std::uint64_t plba, std::span<const std::byte> data)
{
    if (!covers(plba))
        return true;
    ++verifies_;
    if (util::crc32c(data.data(), data.size()) == table_[plba])
        return true;
    ++mismatches_;
    return false;
}

util::Status
IntegrityMap::write_table_block(std::uint64_t plba)
{
    const std::uint32_t per_block = entries_per_block();
    const std::uint64_t first = plba / per_block * per_block;
    const std::uint64_t table_block =
        data_blocks_ + 1 + first / per_block;
    const std::uint64_t count =
        std::min<std::uint64_t>(per_block, data_blocks_ - first);
    const std::size_t used = count * sizeof(std::uint32_t);
    std::memcpy(staging_.data(), table_.data() + first, used);
    // Only the last table block is partial; its tail stays zero.
    std::fill(staging_.begin() + static_cast<std::ptrdiff_t>(used),
              staging_.end(), std::byte{0});
    return device_.write(table_block * block_size_, staging_);
}

util::Status
IntegrityMap::write_header()
{
    IntegrityHeader header;
    header.magic = kMagic;
    header.version = kVersion;
    header.block_size = block_size_;
    header.data_blocks = data_blocks_;
    header.header_crc = header_crc(header);
    std::vector<std::byte> block(block_size_);
    std::memcpy(block.data(), &header, sizeof(header));
    return device_.write(data_blocks_ * block_size_, block);
}

} // namespace nesc::storage
