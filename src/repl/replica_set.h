/**
 * @file
 * Primary-replica storage set with quorum writes, read failover, and
 * background resync.
 *
 * A ReplicaSet mirrors the controller's media traffic across 2-3
 * simulated backends, each reached over its own latency/bandwidth-
 * modelled link (`sim::BandwidthServer`) and fronted by a
 * `JournaledBlockstore` so a backend crash mid-write never leaves torn
 * blocks behind. The design follows the vitastor-style OSD split the
 * ROADMAP calls for: replication policy lives *under* the controller
 * (FlexBSO's argument), invisible to guests.
 *
 * Writes fan out to every serving backend and ack to the caller once a
 * PF-configurable quorum of backends has made the data durable; each
 * target is marked in the backend's dirty-extent log at submission and
 * cleared on its ack, so the log of a dead backend is exactly its
 * catch-up set. Reads are routed to the least-suspect healthy backend
 * and fail over on timeout or media error; repeated health events
 * inside a sliding window demote a backend automatically. A demoted
 * backend that comes back is resynced in the background — batches of
 * the dirty log are copied from a healthy peer while foreground I/O
 * continues (and keeps mirroring to the recovering backend) — until
 * the log drains and the backend is promoted to healthy again.
 *
 * Crashes are injected with crash_backend(): the backend silently
 * stops answering (no failure notification — detection must happen
 * organically through ack/read timeouts, like a real fabric).
 */
#ifndef NESC_REPL_REPLICA_SET_H
#define NESC_REPL_REPLICA_SET_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "repl/blockstore.h"
#include "repl/dirty_log.h"
#include "sim/bandwidth_server.h"
#include "sim/simulator.h"
#include "storage/block_device.h"
#include "storage/media.h"
#include "util/status.h"

namespace nesc::repl {

/** Per-backend shape: link model + journal reservation. */
struct BackendConfig {
    /** Link sustained rate; 0 = infinitely fast. */
    std::uint64_t link_bytes_per_sec = 1'000'000'000;
    /** Fixed one-way link latency (charged on request and response). */
    sim::Duration link_latency = 5'000; // 5 us
    /** Device blocks reserved at the end of the media for the journal. */
    std::uint64_t journal_blocks = 64;
};

/** Set-wide replication policy (PF-tunable at runtime). */
struct ReplicaSetConfig {
    /** Backends that must be durable before a write acks. */
    std::uint32_t quorum = 2;
    /** Read attempt deadline before failing over to the next backend. */
    sim::Duration read_timeout = 2'000'000; // 2 ms
    /** Write ack deadline per target (a dead target resolves here). */
    sim::Duration write_timeout = 2'000'000; // 2 ms
    /** Health events inside the window that trigger demotion. */
    std::uint32_t demote_threshold = 4;
    /** Sliding window for health events. */
    sim::Duration health_window = 50'000'000; // 50 ms
    /** Pause between background resync batches. */
    sim::Duration resync_interval = 100'000; // 100 us
    /** Blocks copied per resync batch. */
    std::uint64_t resync_batch_blocks = 64;
};

/** Serving state of one backend. */
enum class BackendState : std::uint8_t {
    kHealthy = 0,   ///< serving reads and writes
    kDown = 1,      ///< demoted; writes only accumulate in the dirty log
    kResyncing = 2, ///< catching up; mirrors writes, no stale reads
};

/**
 * Replicated multi-backend store; see file comment. As the
 * controller's storage::Media it is the many-backend case.
 */
class ReplicaSet final : public storage::Media {
  public:
    ReplicaSet(sim::Simulator &simulator,
               const ReplicaSetConfig &config = {});
    ~ReplicaSet() override;

    ReplicaSet(const ReplicaSet &) = delete;
    ReplicaSet &operator=(const ReplicaSet &) = delete;

    /**
     * Adds a backend over @p media (not owned; must outlive the set).
     * Returns its index. Backends must be added before I/O starts.
     */
    std::size_t add_backend(storage::BlockDevice &media,
                            const BackendConfig &config = {});

    /** Usable data blocks: the minimum across backends. */
    std::uint64_t data_blocks() const;

    /**
     * Replicated write of whole device blocks at block @p first_block.
     * @p data is copied internally; @p done fires (possibly on a later
     * simulator event) once a quorum of backends is durable, or with
     * an error when quorum is unreachable. With a sidecar in @p op the
     * payload's checksum is recorded once the write is submitted; the
     * write is still mirrored when that write-through fails, so the
     * copies match the in-memory checksum, but it completes as failed.
     */
    void write(std::uint64_t first_block, std::span<const std::byte> data,
               const storage::MediaOp &op, Done done) override;
    /** Unchecked write(). */
    void write(std::uint64_t first_block, std::span<const std::byte> data,
               Done done)
    {
        write(first_block, data, {}, std::move(done));
    }

    /**
     * Replicated read into @p buf, handed back to @p done with the
     * index of the backend that served it — the controller's verifying
     * read path repairs (and skips) that backend when the payload
     * fails its checksum. Routed to the least-suspect healthy backend;
     * fails over on timeout or error until backends are exhausted.
     */
    void read(std::uint64_t first_block, Buffer buf,
              const storage::MediaOp &op, ReadDone done) override;
    /** read() into @p out, which must stay valid until @p done fires. */
    void read(std::uint64_t first_block, std::span<std::byte> out,
              Done done);

    /**
     * Timed read of @p buf from one specific backend, bypassing
     * routing: the integrity recovery ladder uses it to fetch
     * alternate copies. Fails UNAVAILABLE when the backend is down,
     * crashed, or stale (dirty) over the range — a stale copy must
     * never be used as repair source. Always answers on a later event.
     */
    void read_from(std::size_t index, std::uint64_t first_block, Buffer buf,
                   ReadDone done) override;

    /**
     * Writes verified-good data over @p index's copy of the range and
     * clears its dirty marker (functional; the device repairs in line
     * with the read that detected the damage). The repair counter is
     * the scrub/ladder success telemetry.
     */
    util::Status repair_blocks(std::size_t index, std::uint64_t first_block,
                               std::span<const std::byte> data) override;

    /**
     * Functional (untimed) read of @p index's copy, for the background
     * scrubber: it verifies every backend independently, so routing
     * must not pick for it. Same staleness rules as read_from().
     */
    util::Status scrub_read(std::size_t index, std::uint64_t first_block,
                            std::span<std::byte> out) override;

    /// @name Fault-injection and management hooks.
    /// @{
    /** Backend stops answering silently (detection via timeouts). */
    void crash_backend(std::size_t index);
    /**
     * Backend comes back: journal recovery runs, then background
     * resync replays its dirty log from a healthy peer.
     */
    void revive_backend(std::size_t index);
    /** Forced demotion (PF management path). */
    void demote_backend(std::size_t index);
    /** Forced resync start on a down backend (PF management path). */
    void start_resync(std::size_t index);
    /// @}

    /**
     * True when backends @p a and @p b hold bit-identical data
     * regions (functional comparison; no timing).
     */
    util::Result<bool> verify_equal(std::size_t a, std::size_t b);

    /// @name Introspection (PF registers, tests, benches).
    /// @{
    std::size_t backend_count() const override { return backends_.size(); }
    BackendState backend_state(std::size_t index) const;
    bool backend_crashed(std::size_t index) const;
    std::uint64_t dirty_blocks(std::size_t index) const;
    std::uint64_t backend_timeouts(std::size_t index) const;
    std::uint64_t backend_errors(std::size_t index) const;
    std::uint64_t resync_copied(std::size_t index) const;
    const JournaledBlockstore &blockstore(std::size_t index) const;
    std::uint64_t writes_acked() const { return writes_acked_; }
    std::uint64_t writes_failed() const { return writes_failed_; }
    std::uint64_t reads_served() const { return reads_served_; }
    std::uint64_t reads_failed() const { return reads_failed_; }
    std::uint64_t failovers() const { return failovers_; }
    std::uint64_t demotions() const { return demotions_; }
    std::uint64_t resyncs_completed() const { return resyncs_completed_; }
    std::uint64_t repairs() const { return repairs_; }
    /// @}

    const ReplicaSetConfig &config() const { return config_; }
    void set_quorum(std::uint32_t quorum);
    void set_read_timeout(sim::Duration timeout);

    /**
     * Fires whenever a backend transitions to kDown — health-driven
     * demotions and forced ones alike — with the backend index. The
     * controller uses it to snapshot its flight recorder; replace
     * with nullptr to detach.
     */
    void set_demotion_hook(std::function<void(std::size_t)> hook)
    {
        demotion_hook_ = std::move(hook);
    }

  private:
    /** One backend: link + journaled store + health bookkeeping. */
    struct Backend {
        Backend(storage::BlockDevice &m, const BackendConfig &c)
            : media(&m), link(c.link_bytes_per_sec, c.link_latency),
              store(m, c.journal_blocks)
        {
        }

        storage::BlockDevice *media;
        sim::BandwidthServer link;
        JournaledBlockstore store;
        BackendState state = BackendState::kHealthy;
        bool crashed = false;
        /** Bumped on demotion; invalidates in-flight acks to it. */
        std::uint64_t generation = 0;
        /** Bumped when a resync loop is (re)started or cancelled. */
        std::uint64_t resync_epoch = 0;
        DirtyLog dirty;
        std::deque<sim::Time> health_events;
        std::uint64_t timeouts = 0;
        std::uint64_t errors = 0;
        std::uint64_t resync_copied_blocks = 0;
    };

    /** Fan-out bookkeeping for one replicated write. */
    struct PendingWrite {
        std::vector<std::byte> payload;
        std::uint64_t first_block = 0;
        std::uint64_t count = 0;
        Done done;
        std::uint32_t targets = 0;
        std::uint32_t acks = 0;
        std::uint32_t fails = 0;
        bool completed = false;
        /** The checksum write-through failed: quorum acks as an error. */
        bool sidecar_failed = false;
        std::uint64_t resolved = 0; ///< bit per backend, 1 = settled
    };

    /** Retry bookkeeping for one replicated read. */
    struct PendingRead {
        Buffer buf;
        std::uint64_t first_block = 0;
        ReadDone done;
        std::uint64_t tried_mask = 0;
        std::uint64_t attempt = 0; ///< invalidates stale completions
        bool completed = false;
    };

    /**
     * Hands out PendingWrite/PendingRead records for reuse once no
     * scheduled event holds them any more (the pool's reference is the
     * only one left), so a steady stream of I/O allocates no records
     * and reuses each write's payload storage. Records settle about in
     * the order they were handed out — every one waits out the same
     * timeout event — so the oldest record is the one checked. Events
     * own their records, so none dangles if the set goes first.
     */
    template <typename T>
    class Recycler {
      public:
        std::shared_ptr<T>
        acquire()
        {
            if (!pool_.empty() && pool_[next_].use_count() == 1) {
                std::shared_ptr<T> &oldest = pool_[next_];
                next_ = (next_ + 1) % pool_.size();
                return oldest;
            }
            // Still in use: grow, placing the new record last in age.
            auto fresh = std::make_shared<T>();
            pool_.insert(pool_.begin() + static_cast<std::ptrdiff_t>(next_),
                         fresh);
            next_ = (next_ + 1) % pool_.size();
            return fresh;
        }

      private:
        std::vector<std::shared_ptr<T>> pool_;
        std::size_t next_ = 0; ///< oldest record
    };

    void on_write_ack(std::size_t index, std::uint64_t generation,
                      const std::shared_ptr<PendingWrite> &write);
    void on_write_timeout(std::size_t index,
                          const std::shared_ptr<PendingWrite> &write);
    void settle_write(const std::shared_ptr<PendingWrite> &write);
    void issue_read(const std::shared_ptr<PendingRead> &read);
    /** Records a timeout/error against a backend; may demote it. */
    void note_health_event(std::size_t index);
    void resync_tick(std::size_t index, std::uint64_t epoch);
    /** Healthy, non-crashed peer to copy from; -1 when none. */
    int pick_resync_source(std::size_t target) const;

    sim::Simulator &simulator_;
    ReplicaSetConfig config_;
    std::vector<std::unique_ptr<Backend>> backends_;
    Recycler<PendingWrite> write_pool_;
    Recycler<PendingRead> read_pool_;

    std::uint64_t writes_acked_ = 0;
    std::uint64_t writes_failed_ = 0;
    std::uint64_t reads_served_ = 0;
    std::uint64_t reads_failed_ = 0;
    std::uint64_t failovers_ = 0;
    std::uint64_t demotions_ = 0;
    std::uint64_t resyncs_completed_ = 0;
    std::uint64_t repairs_ = 0;
    std::function<void(std::size_t)> demotion_hook_;
};

} // namespace nesc::repl

#endif // NESC_REPL_REPLICA_SET_H
