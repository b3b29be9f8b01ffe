#include "replica_set.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "storage/integrity_map.h"

namespace nesc::repl {

ReplicaSet::ReplicaSet(sim::Simulator &simulator,
                       const ReplicaSetConfig &config)
    : simulator_(simulator), config_(config)
{
    if (config_.quorum == 0)
        config_.quorum = 1;
}

ReplicaSet::~ReplicaSet() = default;

std::size_t
ReplicaSet::add_backend(storage::BlockDevice &media,
                        const BackendConfig &config)
{
    assert(backends_.size() < 64 &&
           "tried_mask and resolved are 64-bit bitmaps");
    backends_.push_back(std::make_unique<Backend>(media, config));
    return backends_.size() - 1;
}

std::uint64_t
ReplicaSet::data_blocks() const
{
    std::uint64_t blocks = 0;
    for (const auto &b : backends_)
        blocks = blocks == 0 ? b->store.data_blocks()
                             : std::min(blocks, b->store.data_blocks());
    return blocks;
}

void
ReplicaSet::set_quorum(std::uint32_t quorum)
{
    // Clamp to [1, backend_count]: this is reachable from the PF
    // kReplQuorum register, and a value above the backend count would
    // make quorum permanently unreachable (every write fails fast).
    if (quorum == 0)
        quorum = 1;
    if (!backends_.empty() && quorum > backends_.size())
        quorum = static_cast<std::uint32_t>(backends_.size());
    config_.quorum = quorum;
}

void
ReplicaSet::set_read_timeout(sim::Duration timeout)
{
    config_.read_timeout = timeout;
}

// ---------------------------------------------------------------------------
// Write path: fan out, journal at each target, ack at quorum.

void
ReplicaSet::write(std::uint64_t first_block, std::span<const std::byte> data,
                  const storage::MediaOp &op, Done done)
{
    std::shared_ptr<PendingWrite> write = write_pool_.acquire();
    // A recycled record keeps its payload storage; all else restarts.
    *write = PendingWrite{.payload = std::move(write->payload),
                          .first_block = first_block,
                          .done = std::move(done)};

    const std::uint32_t block_size =
        backends_.empty() ? 1 : backends_.front()->store.block_size();
    if (backends_.empty() || data.empty() ||
        data.size() % block_size != 0) {
        simulator_.schedule_in(0, [write]() {
            write->done(util::invalid_argument_error(
                "replicated write must be whole blocks"));
        });
        return;
    }
    write->count = data.size() / block_size;
    if (first_block + write->count > data_blocks()) {
        simulator_.schedule_in(0, [write]() {
            write->done(
                util::out_of_range_error("replicated write out of range"));
        });
        return;
    }
    write->payload.assign(data.begin(), data.end());

    const sim::Time now = simulator_.now();
    const std::uint64_t bytes = data.size();
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        Backend &b = *backends_[i];
        // Every submitted write is marked dirty until that backend
        // acks it durable; a down backend just accumulates debt for
        // resync to repay.
        b.dirty.add(first_block, write->count);
        if (b.state == BackendState::kDown)
            continue;
        ++write->targets;
        const std::uint64_t generation = b.generation;
        if (!b.crashed) {
            // Request data crosses the link, the journaled store makes
            // it durable, and a (small) ack rides one latency back.
            sim::Time t = b.link.acquire(now, bytes);
            t = b.store.service_write(t, first_block, bytes);
            t += b.link.latency();
            simulator_.schedule_at(t, [this, i, generation, write]() {
                on_write_ack(i, generation, write);
            });
        }
        // A crashed backend never answers; this deadline settles it.
        simulator_.schedule_at(now + config_.write_timeout,
                               [this, i, write]() {
                                   on_write_timeout(i, write);
                               });
    }
    // The checksum binds the payload the guest wrote, against which
    // every backend's copy is later judged.
    if (op.sidecar != nullptr &&
        !op.sidecar->record(first_block, data).is_ok())
        write->sidecar_failed = true;
    settle_write(write); // fails fast when quorum is already unreachable
}

void
ReplicaSet::on_write_ack(std::size_t index, std::uint64_t generation,
                         const std::shared_ptr<PendingWrite> &write)
{
    Backend &b = *backends_[index];
    if (b.crashed || b.generation != generation) {
        // Ack from before a crash or demotion: the data may not be
        // durable; leave the dirty marker for resync and let the
        // timeout event settle the target.
        return;
    }
    const std::uint64_t bit = 1ULL << index;
    if (write->resolved & bit) {
        // The timeout settled this target first, but the backend is
        // alive and the data did land. Apply it anyway and clear the
        // dirty marker: a backend that never leaves kHealthy is never
        // resynced, so dropping this ack would leave one slow write
        // silently divergent on it forever.
        if (b.store.write_blocks(write->first_block, write->payload)
                .is_ok())
            b.dirty.remove(write->first_block, write->count);
        return;
    }
    write->resolved |= bit;
    // Functional apply happens at ack time — and even after quorum has
    // been reported, so slow backends still converge.
    util::Status status =
        b.store.write_blocks(write->first_block, write->payload);
    if (status.is_ok()) {
        b.dirty.remove(write->first_block, write->count);
        ++write->acks;
    } else {
        ++b.errors;
        ++write->fails;
        note_health_event(index);
    }
    settle_write(write);
}

void
ReplicaSet::on_write_timeout(std::size_t index,
                             const std::shared_ptr<PendingWrite> &write)
{
    const std::uint64_t bit = 1ULL << index;
    if (write->resolved & bit)
        return; // the ack beat the deadline: nothing to do
    write->resolved |= bit;
    Backend &b = *backends_[index];
    ++b.timeouts;
    ++write->fails;
    // The write may or may not have landed; keep (re-add) the dirty
    // marker so resync re-copies the range either way.
    b.dirty.add(write->first_block, write->count);
    note_health_event(index);
    settle_write(write);
}

void
ReplicaSet::settle_write(const std::shared_ptr<PendingWrite> &write)
{
    if (write->completed)
        return;
    const std::uint32_t need = config_.quorum;
    if (write->acks >= need) {
        write->completed = true;
        ++writes_acked_;
        simulator_.schedule_in(0, [write]() {
            write->done(write->sidecar_failed
                            ? util::data_loss_error(
                                  "checksum sidecar write-through failed")
                            : util::Status::ok());
        });
        return;
    }
    const std::uint32_t unresolved =
        write->targets - write->acks - write->fails;
    if (write->acks + unresolved < need) {
        write->completed = true;
        ++writes_failed_;
        simulator_.schedule_in(0, [write]() {
            write->done(util::unavailable_error(
                "write quorum unreachable"));
        });
    }
}

// ---------------------------------------------------------------------------
// Read path: route to the least-suspect backend, fail over on
// timeout/error.

void
ReplicaSet::read(std::uint64_t first_block, std::span<std::byte> out,
                 Done done)
{
    read(first_block, Buffer(out.size()), {},
         [out, done = std::move(done)](util::Status status, int /*backend*/,
                                       Buffer buf) {
             if (status.is_ok())
                 std::copy(buf.begin(), buf.end(), out.begin());
             done(std::move(status));
         });
}

void
ReplicaSet::read(std::uint64_t first_block, Buffer buf,
                 const storage::MediaOp & /*op*/, ReadDone done)
{
    std::shared_ptr<PendingRead> read = read_pool_.acquire();
    *read = PendingRead{.buf = std::move(buf),
                        .first_block = first_block,
                        .done = std::move(done)};

    const std::uint32_t block_size =
        backends_.empty() ? 1 : backends_.front()->store.block_size();
    const std::uint64_t bytes = read->buf.size();
    if (backends_.empty() || bytes == 0 || bytes % block_size != 0 ||
        first_block + bytes / block_size > data_blocks()) {
        simulator_.schedule_in(0, [read]() {
            read->done(
                util::out_of_range_error("replicated read out of range"),
                -1, std::move(read->buf));
        });
        return;
    }
    issue_read(read);
}

void
ReplicaSet::read_from(std::size_t index, std::uint64_t first_block,
                      Buffer buf, ReadDone done)
{
    util::Status refused = util::Status::ok();
    if (index >= backends_.size()) {
        refused = util::out_of_range_error("no such backend");
    } else {
        const Backend &b = *backends_[index];
        const std::uint32_t block_size = b.store.block_size();
        const std::uint64_t count =
            block_size == 0 ? 0 : buf.size() / block_size;
        if (b.crashed || b.state == BackendState::kDown ||
            b.dirty.intersects(first_block, count))
            refused = util::unavailable_error(
                "backend unavailable or stale over range");
    }
    if (!refused.is_ok()) {
        simulator_.schedule_in(0, [refused = std::move(refused),
                                   buf = std::move(buf),
                                   done = std::move(done)]() mutable {
            done(std::move(refused), -1, std::move(buf));
        });
        return;
    }
    Backend &b = *backends_[index];
    const std::uint64_t generation = b.generation;
    sim::Time t = b.store.service_read(simulator_.now() + b.link.latency(),
                                       first_block, buf.size());
    t = b.link.acquire(t, buf.size());
    simulator_.schedule_at(t, [this, index, generation, first_block,
                               buf = std::move(buf),
                               done = std::move(done)]() mutable {
        Backend &backend = *backends_[index];
        util::Status status =
            backend.crashed || backend.generation != generation
                ? util::unavailable_error("backend lost mid-read")
                : backend.store.read_blocks(first_block, buf);
        const int served = status.is_ok() ? static_cast<int>(index) : -1;
        done(std::move(status), served, std::move(buf));
    });
}

util::Status
ReplicaSet::scrub_read(std::size_t index, std::uint64_t first_block,
                       std::span<std::byte> out)
{
    if (index >= backends_.size())
        return util::out_of_range_error("no such backend");
    Backend &b = *backends_[index];
    const std::uint32_t block_size = b.store.block_size();
    const std::uint64_t count =
        block_size == 0 ? 0 : out.size() / block_size;
    if (b.crashed || b.state == BackendState::kDown ||
        b.dirty.intersects(first_block, count))
        return util::unavailable_error(
            "backend unavailable or stale over range");
    return b.store.read_blocks(first_block, out);
}

util::Status
ReplicaSet::repair_blocks(std::size_t index, std::uint64_t first_block,
                          std::span<const std::byte> data)
{
    if (index >= backends_.size())
        return util::out_of_range_error("no such backend");
    Backend &b = *backends_[index];
    const std::uint32_t block_size = b.store.block_size();
    if (data.empty() || data.size() % block_size != 0)
        return util::invalid_argument_error(
            "repair must be whole blocks");
    NESC_RETURN_IF_ERROR(b.store.write_blocks(first_block, data));
    b.dirty.remove(first_block, data.size() / block_size);
    ++repairs_;
    return util::Status::ok();
}

void
ReplicaSet::issue_read(const std::shared_ptr<PendingRead> &read)
{
    const std::uint32_t block_size = backends_.front()->store.block_size();
    const std::uint64_t count = read->buf.size() / block_size;

    // Candidates: healthy backends, plus resyncing ones whose dirty
    // log does not cover the range (their copy of it is current).
    // A healthy backend whose dirty log intersects the range has an
    // in-flight write against it that another backend may already have
    // acked — serving from it could return stale pre-write data — so
    // clean backends win over dirty ones, and dirty-but-healthy ones
    // are only a last resort. Within a class, prefer the backend with
    // the cleanest recent health record; break ties by index for
    // determinism.
    int best = -1;
    std::size_t best_events = 0;
    bool best_clean = false;
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        if (read->tried_mask & (1ULL << i))
            continue;
        const Backend &b = *backends_[i];
        if (b.state == BackendState::kDown)
            continue;
        const bool dirty = b.dirty.intersects(read->first_block, count);
        if (b.state == BackendState::kResyncing && dirty)
            continue; // genuinely stale: resync has not copied it yet
        const bool clean = !dirty;
        const std::size_t events = b.health_events.size();
        if (best < 0 || (clean && !best_clean) ||
            (clean == best_clean && events < best_events)) {
            best = static_cast<int>(i);
            best_events = events;
            best_clean = clean;
        }
    }
    if (best < 0) {
        // Settle the read before scheduling the callback: a still-
        // pending event for the last attempt (late media completion or
        // its timeout) passes the attempt guard and would re-enter
        // here, double-firing done().
        read->completed = true;
        ++reads_failed_;
        simulator_.schedule_in(0, [read]() {
            read->done(
                util::unavailable_error("no healthy backend for read"),
                -1, std::move(read->buf));
        });
        return;
    }

    const std::size_t index = static_cast<std::size_t>(best);
    read->tried_mask |= 1ULL << index;
    const std::uint64_t attempt = ++read->attempt;
    Backend &b = *backends_[index];
    const std::uint64_t generation = b.generation;
    const sim::Time now = simulator_.now();
    const std::uint64_t bytes = read->buf.size();

    if (!b.crashed) {
        // Request rides one link latency out; data pays for media and
        // the return trip's bandwidth.
        sim::Time t = b.store.service_read(now + b.link.latency(),
                                           read->first_block, bytes);
        t = b.link.acquire(t, bytes);
        simulator_.schedule_at(
            t, [this, index, generation, attempt, read]() {
                if (read->completed || read->attempt != attempt)
                    return; // superseded by a failover
                Backend &backend = *backends_[index];
                if (backend.crashed ||
                    backend.generation != generation) {
                    ++failovers_;
                    issue_read(read);
                    return;
                }
                util::Status status = backend.store.read_blocks(
                    read->first_block, read->buf);
                if (status.is_ok()) {
                    read->completed = true;
                    ++reads_served_;
                    read->done(util::Status::ok(),
                               static_cast<int>(index),
                               std::move(read->buf));
                    return;
                }
                ++backend.errors;
                note_health_event(index);
                ++failovers_;
                issue_read(read);
            });
    }
    simulator_.schedule_at(
        now + config_.read_timeout, [this, index, attempt, read]() {
            if (read->completed || read->attempt != attempt)
                return; // answered (or already failed over)
            Backend &backend = *backends_[index];
            ++backend.timeouts;
            note_health_event(index);
            ++failovers_;
            issue_read(read);
        });
}

// ---------------------------------------------------------------------------
// Health tracking and demotion.

void
ReplicaSet::note_health_event(std::size_t index)
{
    Backend &b = *backends_[index];
    const sim::Time now = simulator_.now();
    const sim::Time horizon =
        now >= config_.health_window ? now - config_.health_window : 0;
    b.health_events.push_back(now);
    while (!b.health_events.empty() && b.health_events.front() < horizon)
        b.health_events.pop_front();
    if (b.state != BackendState::kDown &&
        b.health_events.size() >= config_.demote_threshold)
        demote_backend(index);
}

void
ReplicaSet::demote_backend(std::size_t index)
{
    Backend &b = *backends_[index];
    if (b.state == BackendState::kDown)
        return;
    b.state = BackendState::kDown;
    ++b.generation;   // drops in-flight acks to this backend
    ++b.resync_epoch; // cancels a resync loop if one was running
    b.health_events.clear();
    ++demotions_;
    if (demotion_hook_)
        demotion_hook_(index);
}

void
ReplicaSet::crash_backend(std::size_t index)
{
    backends_[index]->crashed = true;
}

void
ReplicaSet::revive_backend(std::size_t index)
{
    Backend &b = *backends_[index];
    if (!b.crashed && b.state == BackendState::kHealthy)
        return;
    b.crashed = false;
    // Journal recovery first: committed-but-torn transactions are
    // re-applied, torn ones rolled back, so resync starts from a
    // consistent (if stale) store.
    (void)b.store.recover();
    // Catch up if the backend missed anything — including the case
    // where the crash was too brief to trigger demotion but writes
    // timed out against it (their dirty markers are still set).
    if (b.state != BackendState::kHealthy || !b.dirty.empty())
        start_resync(index);
}

void
ReplicaSet::start_resync(std::size_t index)
{
    Backend &b = *backends_[index];
    if (b.crashed)
        return;
    b.state = BackendState::kResyncing;
    b.health_events.clear();
    const std::uint64_t epoch = ++b.resync_epoch;
    simulator_.schedule_in(config_.resync_interval,
                           [this, index, epoch]() {
                               resync_tick(index, epoch);
                           });
}

int
ReplicaSet::pick_resync_source(std::size_t target) const
{
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        if (i == target)
            continue;
        const Backend &b = *backends_[i];
        if (b.state == BackendState::kHealthy && !b.crashed)
            return static_cast<int>(i);
    }
    return -1;
}

void
ReplicaSet::resync_tick(std::size_t index, std::uint64_t epoch)
{
    Backend &b = *backends_[index];
    if (epoch != b.resync_epoch || b.state != BackendState::kResyncing)
        return; // cancelled (demotion or re-crash)
    if (b.crashed) {
        b.state = BackendState::kDown;
        return;
    }
    const auto range = b.dirty.first(config_.resync_batch_blocks);
    if (!range) {
        // Dirty log drained: the backend is current again.
        b.state = BackendState::kHealthy;
        b.health_events.clear();
        ++resyncs_completed_;
        return;
    }
    const int source = pick_resync_source(index);
    if (source < 0) {
        // No peer to copy from right now; keep the loop alive.
        simulator_.schedule_in(config_.resync_interval,
                               [this, index, epoch]() {
                                   resync_tick(index, epoch);
                               });
        return;
    }

    // Book the copy: source media read, target link, journaled target
    // write. Foreground I/O shares these resources, which is exactly
    // the interference the bench measures.
    Backend &src = *backends_[static_cast<std::size_t>(source)];
    const std::uint32_t block_size = b.store.block_size();
    const std::uint64_t bytes = range->count * block_size;
    sim::Time t =
        src.store.service_read(simulator_.now(), range->first, bytes);
    t = b.link.acquire(t, bytes);
    t = b.store.service_write(t, range->first, bytes);
    simulator_.schedule_at(t, [this, index, epoch, source,
                               first = range->first,
                               count = range->count]() {
        Backend &backend = *backends_[index];
        if (epoch != backend.resync_epoch ||
            backend.state != BackendState::kResyncing)
            return;
        if (backend.crashed) {
            backend.state = BackendState::kDown;
            return;
        }
        Backend &peer = *backends_[static_cast<std::size_t>(source)];
        if (peer.crashed || peer.state != BackendState::kHealthy) {
            // Source died mid-copy; retry the batch from another peer.
            simulator_.schedule_in(config_.resync_interval,
                                   [this, index, epoch]() {
                                       resync_tick(index, epoch);
                                   });
            return;
        }
        // Apply functionally at completion time, block by block,
        // re-checking dirtiness: a foreground write that acked on this
        // backend meanwhile already delivered newer data and cleared
        // the marker — skip those blocks rather than regress them.
        const std::uint32_t block_size = backend.store.block_size();
        std::vector<std::byte> buffer(block_size);
        for (std::uint64_t blk = first; blk < first + count; ++blk) {
            if (!backend.dirty.covers(blk, 1))
                continue;
            if (!peer.store.read_blocks(blk, buffer).is_ok())
                continue; // peer error: leave dirty, retry next batch
            if (!backend.store.write_blocks(blk, buffer).is_ok())
                continue;
            backend.dirty.remove(blk, 1);
            ++backend.resync_copied_blocks;
        }
        simulator_.schedule_in(config_.resync_interval,
                               [this, index, epoch]() {
                                   resync_tick(index, epoch);
                               });
    });
}

// ---------------------------------------------------------------------------
// Introspection.

util::Result<bool>
ReplicaSet::verify_equal(std::size_t a, std::size_t b)
{
    Backend &lhs = *backends_[a];
    Backend &rhs = *backends_[b];
    const std::uint64_t blocks = std::min(lhs.store.data_blocks(),
                                          rhs.store.data_blocks());
    const std::uint32_t block_size = lhs.store.block_size();
    std::vector<std::byte> lbuf(block_size);
    std::vector<std::byte> rbuf(block_size);
    for (std::uint64_t blk = 0; blk < blocks; ++blk) {
        NESC_RETURN_IF_ERROR(lhs.store.read_blocks(blk, lbuf));
        NESC_RETURN_IF_ERROR(rhs.store.read_blocks(blk, rbuf));
        if (std::memcmp(lbuf.data(), rbuf.data(), block_size) != 0)
            return false;
    }
    return true;
}

BackendState
ReplicaSet::backend_state(std::size_t index) const
{
    return backends_[index]->state;
}

bool
ReplicaSet::backend_crashed(std::size_t index) const
{
    return backends_[index]->crashed;
}

std::uint64_t
ReplicaSet::dirty_blocks(std::size_t index) const
{
    return backends_[index]->dirty.total_blocks();
}

std::uint64_t
ReplicaSet::backend_timeouts(std::size_t index) const
{
    return backends_[index]->timeouts;
}

std::uint64_t
ReplicaSet::backend_errors(std::size_t index) const
{
    return backends_[index]->errors;
}

std::uint64_t
ReplicaSet::resync_copied(std::size_t index) const
{
    return backends_[index]->resync_copied_blocks;
}

const JournaledBlockstore &
ReplicaSet::blockstore(std::size_t index) const
{
    return backends_[index]->store;
}

} // namespace nesc::repl
