#include "function_driver.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/log.h"
#include "util/units.h"

#undef NESC_LOG_COMPONENT
#define NESC_LOG_COMPONENT "fn_driver"

namespace nesc::drv {

using ctrl::CommandRecord;
using ctrl::CompletionRecord;
using ctrl::CompletionStatus;
using ctrl::Opcode;

FunctionDriver::FunctionDriver(sim::Simulator &simulator,
                               pcie::HostMemory &host_memory,
                               pcie::BarPageRouter &bar,
                               pcie::InterruptController &irq,
                               pcie::FunctionId fn,
                               const FunctionDriverConfig &config)
    : simulator_(simulator), host_memory_(host_memory), bar_(bar),
      irq_(irq), fn_(fn), config_(config),
      jitter_rng_(config.jitter_seed ^
                  (static_cast<std::uint64_t>(fn) * 0x9e3779b97f4a7c15ULL))
{
}

FunctionDriver::~FunctionDriver()
{
    for (std::uint32_t qid = 0; qid < queues_.size(); ++qid) {
        irq_.clear_handler(ctrl::queue_vector(fn_, qid));
        if (queues_[qid].cmd_mem != pcie::kNullHostAddr)
            (void)host_memory_.free(queues_[qid].cmd_mem);
        if (queues_[qid].comp_mem != pcie::kNullHostAddr)
            (void)host_memory_.free(queues_[qid].comp_mem);
    }
    if (queues_.empty())
        irq_.clear_handler(ctrl::completion_vector(fn_));
}

util::Status
FunctionDriver::setup_queue_rings(std::uint32_t qid)
{
    QueueRings &q = queues_[qid];
    const std::uint64_t cmd_bytes = pcie::HostRing::footprint(
        config_.ring_entries, sizeof(CommandRecord));
    const std::uint64_t comp_bytes = pcie::HostRing::footprint(
        config_.ring_entries, sizeof(CompletionRecord));
    NESC_ASSIGN_OR_RETURN(q.cmd_mem, host_memory_.alloc(cmd_bytes, 64));
    NESC_ASSIGN_OR_RETURN(q.comp_mem, host_memory_.alloc(comp_bytes, 64));
    NESC_ASSIGN_OR_RETURN(
        auto cmd_ring,
        pcie::HostRing::create(host_memory_, q.cmd_mem,
                               config_.ring_entries, sizeof(CommandRecord)));
    q.cmd = cmd_ring;
    NESC_ASSIGN_OR_RETURN(
        auto comp_ring,
        pcie::HostRing::create(host_memory_, q.comp_mem,
                               config_.ring_entries,
                               sizeof(CompletionRecord)));
    q.comp = comp_ring;
    return util::Status::ok();
}

util::Status
FunctionDriver::admin_create_queue(std::uint32_t qid)
{
    const QueueRings &q = queues_[qid];
    NESC_RETURN_IF_ERROR(reg_write(ctrl::reg::kQpSelect, qid));
    NESC_RETURN_IF_ERROR(reg_write(ctrl::reg::kQpSqBase, q.cmd_mem));
    NESC_RETURN_IF_ERROR(reg_write(ctrl::reg::kQpCqBase, q.comp_mem));
    NESC_RETURN_IF_ERROR(reg_write(
        ctrl::reg::kQpCommand,
        static_cast<std::uint64_t>(ctrl::QpCommand::kCreate)));
    NESC_ASSIGN_OR_RETURN(const std::uint64_t status,
                          reg_read(ctrl::reg::kQpStatus));
    if (status != static_cast<std::uint64_t>(ctrl::MgmtStatus::kOk)) {
        return util::failed_precondition_error(
            "device rejected queue-pair create (check the PF quota)");
    }
    return util::Status::ok();
}

util::Status
FunctionDriver::init()
{
    const std::uint32_t npairs = std::max<std::uint32_t>(
        1, std::min(config_.queue_pairs, ctrl::kMaxQueuePairs));
    queues_.resize(npairs);

    // Pair 0 rides the legacy registers so a single-queue driver is
    // indistinguishable from the pre-multi-queue one.
    NESC_RETURN_IF_ERROR(setup_queue_rings(0));
    NESC_RETURN_IF_ERROR(
        reg_write(ctrl::reg::kCmdRingBase, queues_[0].cmd_mem));
    NESC_RETURN_IF_ERROR(
        reg_write(ctrl::reg::kCompRingBase, queues_[0].comp_mem));
    irq_.set_handler(ctrl::completion_vector(fn_),
                     [this]() { handle_completion_irq(0); });

    // Additional pairs go through the admin block.
    for (std::uint32_t qid = 1; qid < npairs; ++qid) {
        NESC_RETURN_IF_ERROR(setup_queue_rings(qid));
        NESC_RETURN_IF_ERROR(admin_create_queue(qid));
        irq_.set_handler(ctrl::queue_vector(fn_, qid),
                         [this, qid]() { handle_completion_irq(qid); });
    }
    return util::Status::ok();
}

util::Result<std::uint64_t>
FunctionDriver::device_size_blocks()
{
    return reg_read(ctrl::reg::kDeviceSize);
}

util::Result<std::uint64_t>
FunctionDriver::reg_read(std::uint64_t offset)
{
    simulator_.advance(config_.mmio_read_cost);
    return bar_.read(bar_.function_base(fn_) + offset, 8);
}

util::Status
FunctionDriver::reg_write(std::uint64_t offset, std::uint64_t value)
{
    simulator_.advance(config_.mmio_write_cost);
    return bar_.write(bar_.function_base(fn_) + offset, value, 8);
}

util::Status
FunctionDriver::push_command(std::uint32_t qid, const CommandRecord &record)
{
    std::array<std::byte, sizeof(record)> buf;
    std::memcpy(buf.data(), &record, sizeof(record));
    return queues_[qid].cmd->push(buf);
}

void
FunctionDriver::ring_doorbell(std::uint32_t qid)
{
    if (qid == 0) {
        (void)reg_write(ctrl::reg::kDoorbell, 1); // legacy alias
        return;
    }
    (void)reg_write(ctrl::reg::kQpDoorbell0 + 8ull * qid, 1);
}

util::Status
FunctionDriver::submit(Opcode op, std::uint64_t vlba, std::uint32_t nblocks,
                       pcie::HostAddr buffer, Done done)
{
    if (queues_.empty() || !queues_[0].cmd)
        return util::failed_precondition_error("driver not initialized");
    if (nblocks == 0)
        return util::invalid_argument_error("zero-length request");

    const std::uint64_t request_id = next_request_++;
    PendingRequest req;
    req.done = std::move(done);
    req.op = op;
    req.vlba = vlba;
    req.nblocks = nblocks;
    req.buffer = buffer;
    requests_[request_id] = std::move(req);
    util::Status issued = issue_chunks(request_id);
    if (!issued.is_ok())
        requests_.erase(request_id);
    return issued;
}

util::Status
FunctionDriver::issue_chunks(std::uint64_t request_id)
{
    // Copy the request shape up front: the ring-full wait below steps
    // the simulator, which can re-enter the completion handler and
    // rehash/mutate requests_.
    const PendingRequest &entry = requests_.at(request_id);
    const Opcode op = entry.op;
    const std::uint64_t vlba = entry.vlba;
    const std::uint32_t nblocks = entry.nblocks;
    const pcie::HostAddr buffer = entry.buffer;
    const std::uint32_t chunks =
        static_cast<std::uint32_t>(util::ceil_div(nblocks,
                                                  config_.max_chunk_blocks));
    {
        PendingRequest &req = requests_.at(request_id);
        req.chunks_remaining = chunks;
        req.status = CompletionStatus::kOk;
    }

    // Chunks stripe round-robin across the configured queue pairs;
    // with a single pair this degenerates to the legacy path exactly.
    // Bit qid of `dirty` marks a pair with commands behind its doorbell.
    static_assert(ctrl::kMaxQueuePairs <= 32);
    std::uint32_t dirty = 0;
    std::uint32_t submitted_blocks = 0;
    while (submitted_blocks < nblocks) {
        const std::uint32_t chunk = std::min<std::uint32_t>(
            config_.max_chunk_blocks, nblocks - submitted_blocks);
        const std::uint32_t qid = next_queue_;
        next_queue_ = (next_queue_ + 1) %
                      static_cast<std::uint32_t>(queues_.size());
        simulator_.advance(config_.submit_cost);
        CommandRecord rec{};
        rec.vlba = vlba + submitted_blocks;
        rec.nblocks = chunk;
        rec.opcode = static_cast<std::uint8_t>(op);
        rec.host_buffer =
            buffer + static_cast<pcie::HostAddr>(submitted_blocks) *
                         ctrl::kDeviceBlockSize;
        rec.tag = next_tag_++;
        tag_to_request_[rec.tag] = request_id;
        util::Status pushed = push_command(qid, rec);
        if (!pushed.is_ok()) {
            // Ring full: kick the device and retry after it drains.
            ring_doorbell(qid);
            dirty &= ~(1u << qid);
            while (!pushed.is_ok() &&
                   pushed.code() == util::ErrorCode::kUnavailable) {
                if (!simulator_.step()) {
                    return util::internal_error(
                        "command ring wedged: device made no progress");
                }
                pushed = push_command(qid, rec);
            }
            NESC_RETURN_IF_ERROR(pushed);
        }
        dirty |= 1u << qid;
        submitted_blocks += chunk;
        ++submitted_;
    }
    for (std::uint32_t qid = 0; qid < queues_.size(); ++qid)
        if ((dirty >> qid) & 1)
            ring_doorbell(qid);

    auto it = requests_.find(request_id);
    if (it != requests_.end() && config_.request_timeout != 0) {
        PendingRequest &req = it->second;
        req.deadline = simulator_.now() + config_.request_timeout;
        const std::uint64_t gen = req.generation;
        simulator_.schedule_at(req.deadline, [this, request_id, gen]() {
            check_timeout(request_id, gen);
        });
    }
    return util::Status::ok();
}

void
FunctionDriver::handle_completion_irq(std::uint32_t qid)
{
    if (qid >= queues_.size() || !queues_[qid].comp)
        return;
    std::array<std::byte, sizeof(CompletionRecord)> buf;
    bool need_flr = false;
    for (;;) {
        auto popped = queues_[qid].comp->pop(buf);
        if (!popped.is_ok() || !popped.value())
            break;
        simulator_.advance(config_.completion_cost);
        CompletionRecord rec;
        std::memcpy(&rec, buf.data(), sizeof(rec));
        auto tag_it = tag_to_request_.find(rec.tag);
        if (tag_it == tag_to_request_.end()) {
            NESC_LOG_WARN("fn %u: completion for unknown tag %llu", fn_,
                          static_cast<unsigned long long>(rec.tag));
            continue;
        }
        const std::uint64_t request_id = tag_it->second;
        tag_to_request_.erase(tag_it);
        auto req_it = requests_.find(request_id);
        if (req_it == requests_.end())
            continue;
        if (rec.status != static_cast<std::uint32_t>(CompletionStatus::kOk))
            req_it->second.status =
                static_cast<CompletionStatus>(rec.status);
        if (--req_it->second.chunks_remaining != 0)
            continue;

        PendingRequest &req = req_it->second;
        const CompletionStatus status = req.status;
        if (status == CompletionStatus::kAborted &&
            config_.max_flr_recoveries != 0) {
            // The device tore the command down (watchdog). Recover
            // with a function-level reset — but only after the pop
            // loop, since the reset reattaches this very ring.
            need_flr = true;
            continue;
        }
        if (ctrl::completion_status_retryable(status) &&
            status != CompletionStatus::kAborted &&
            req.attempts < config_.max_retries) {
            ++req.attempts;
            ++retries_;
            const std::uint64_t gen = ++req.generation;
            simulator_.schedule_in(retry_delay(req.attempts),
                                   [this, request_id, gen]() {
                                       resubmit(request_id, gen);
                                   });
            continue;
        }
        Done done = std::move(req.done);
        requests_.erase(req_it);
        ++completed_;
        if (done)
            done(status);
    }
    if (need_flr)
        flr_recover();
}

sim::Duration
FunctionDriver::retry_delay(std::uint32_t attempt)
{
    const sim::Duration base = config_.retry_backoff << (attempt - 1);
    if (config_.retry_jitter <= 0.0)
        return base;
    // Uniform in [1 - j, 1 + j]; clamp so pathological j keeps the
    // delay positive.
    const double jitter = std::min(config_.retry_jitter, 0.99);
    const double scale =
        1.0 + jitter * (2.0 * jitter_rng_.next_double() - 1.0);
    const double scaled = static_cast<double>(base) * scale;
    return scaled < 1.0 ? 1 : static_cast<sim::Duration>(scaled);
}

void
FunctionDriver::resubmit(std::uint64_t request_id, std::uint64_t generation)
{
    auto it = requests_.find(request_id);
    if (it == requests_.end() || it->second.generation != generation)
        return; // superseded by a newer submission or already done
    util::Status issued = issue_chunks(request_id);
    if (!issued.is_ok())
        fail_request(request_id, CompletionStatus::kInternalError);
}

void
FunctionDriver::check_timeout(std::uint64_t request_id,
                              std::uint64_t generation)
{
    auto it = requests_.find(request_id);
    if (it == requests_.end() || it->second.generation != generation)
        return; // completed or resubmitted since the timer was armed
    if (simulator_.now() < it->second.deadline)
        return;
    ++timeouts_;
    // Always reset: even when the request is out of FLR budget the
    // function must be unwedged, or every later request hangs too.
    flr_recover();
}

void
FunctionDriver::fail_request(std::uint64_t request_id,
                             CompletionStatus status)
{
    auto it = requests_.find(request_id);
    if (it == requests_.end())
        return;
    Done done = std::move(it->second.done);
    requests_.erase(it);
    ++completed_;
    if (done)
        done(status);
}

void
FunctionDriver::flr_recover()
{
    ++flr_recoveries_;
    (void)reg_write(ctrl::reg::kFnReset, 1);
    // The reset dropped the device-side ring attachments, cleared the
    // ring-base registers, and destroyed every extra queue pair;
    // recreate the rings over the same host memory, reprogram pair 0
    // through the legacy registers, and admin-create the rest (the
    // PF-owned quota survives the reset).
    std::vector<std::uint64_t> ids;
    ids.reserve(requests_.size());
    for (const auto &[id, req] : requests_)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    bool rings_ok = true;
    for (std::uint32_t qid = 0; qid < queues_.size() && rings_ok; ++qid) {
        QueueRings &q = queues_[qid];
        auto cmd = pcie::HostRing::create(host_memory_, q.cmd_mem,
                                          config_.ring_entries,
                                          sizeof(CommandRecord));
        auto comp = pcie::HostRing::create(host_memory_, q.comp_mem,
                                           config_.ring_entries,
                                           sizeof(CompletionRecord));
        if (!cmd.is_ok() || !comp.is_ok()) {
            rings_ok = false;
            break;
        }
        q.cmd = std::move(cmd).value();
        q.comp = std::move(comp).value();
        if (qid == 0) {
            (void)reg_write(ctrl::reg::kCmdRingBase, q.cmd_mem);
            (void)reg_write(ctrl::reg::kCompRingBase, q.comp_mem);
        } else {
            rings_ok = admin_create_queue(qid).is_ok();
        }
    }
    if (!rings_ok) {
        for (std::uint64_t id : ids)
            fail_request(id, CompletionStatus::kInternalError);
        return;
    }
    // Every outstanding tag died with the reset.
    tag_to_request_.clear();
    // Resubmit all outstanding requests (the reset aborted them on
    // the device whether or not they had completed kAborted yet);
    // requests over their FLR budget fail to the caller instead.
    for (std::uint64_t id : ids) {
        auto it = requests_.find(id);
        if (it == requests_.end())
            continue;
        PendingRequest &req = it->second;
        ++req.generation;
        if (++req.flr_recoveries > config_.max_flr_recoveries) {
            fail_request(id, CompletionStatus::kAborted);
            continue;
        }
        util::Status issued = issue_chunks(id);
        if (!issued.is_ok())
            fail_request(id, CompletionStatus::kInternalError);
    }
}

namespace {
/**
 * Maps a final completion status onto the util::Status error classes
 * the sync helpers surface. The mapping must preserve retryability:
 * kUnavailable is the conventional "transient, retry may succeed"
 * class, so only statuses that completion_status_retryable() admits
 * may use it — a kOutOfRange or kMalformed completion folded into
 * kUnavailable would send callers into a retry loop against a
 * deterministic rejection.
 */
util::Status
completion_to_status(CompletionStatus status)
{
    const std::string detail =
        "device completion status " +
        std::to_string(static_cast<std::uint32_t>(status));
    switch (status) {
      case CompletionStatus::kOk:
        return util::Status::ok();
      case CompletionStatus::kOutOfRange:
        return util::out_of_range_error(detail);
      case CompletionStatus::kWriteFailed:
        return util::resource_exhausted_error(detail);
      case CompletionStatus::kInternalError:
        return util::internal_error(detail);
      case CompletionStatus::kMalformed:
        return util::invalid_argument_error(detail);
      case CompletionStatus::kDmaFault:
        return util::permission_denied_error(detail);
      case CompletionStatus::kReadMediaError:
      case CompletionStatus::kWriteMediaError:
      case CompletionStatus::kChecksumError:
      case CompletionStatus::kAborted:
        return util::unavailable_error(detail);
    }
    return util::internal_error(detail);
}
} // namespace

util::Status
FunctionDriver::read_sync(std::uint64_t vlba, std::uint32_t nblocks,
                          std::span<std::byte> out)
{
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(nblocks) * ctrl::kDeviceBlockSize;
    if (out.size() != bytes)
        return util::invalid_argument_error("read buffer size mismatch");
    NESC_ASSIGN_OR_RETURN(pcie::HostAddr buffer,
                          host_memory_.alloc(bytes, 64));

    bool finished = false;
    CompletionStatus status = CompletionStatus::kOk;
    util::Status submitted = submit(Opcode::kRead, vlba, nblocks, buffer,
                                    [&](CompletionStatus s) {
                                        finished = true;
                                        status = s;
                                    });
    if (!submitted.is_ok()) {
        (void)host_memory_.free(buffer);
        return submitted;
    }
    while (!finished) {
        if (!simulator_.step()) {
            (void)host_memory_.free(buffer);
            return util::internal_error("device hung: no completion");
        }
    }
    if (status != CompletionStatus::kOk) {
        (void)host_memory_.free(buffer);
        return completion_to_status(status);
    }
    // Copy out of the DMA buffer; with trampoline buffers this is the
    // prototype's mandatory bounce copy, charged at memcpy bandwidth.
    util::Status read_back = host_memory_.read(buffer, out);
    if (config_.trampoline) {
        simulator_.advance(
            util::transfer_time_ns(bytes, config_.copy_bytes_per_sec));
    }
    (void)host_memory_.free(buffer);
    return read_back;
}

util::Status
FunctionDriver::write_sync(std::uint64_t vlba, std::uint32_t nblocks,
                           std::span<const std::byte> in)
{
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(nblocks) * ctrl::kDeviceBlockSize;
    if (in.size() != bytes)
        return util::invalid_argument_error("write buffer size mismatch");
    NESC_ASSIGN_OR_RETURN(pcie::HostAddr buffer,
                          host_memory_.alloc(bytes, 64));
    NESC_RETURN_IF_ERROR(host_memory_.write(buffer, in));
    if (config_.trampoline) {
        simulator_.advance(
            util::transfer_time_ns(bytes, config_.copy_bytes_per_sec));
    }

    bool finished = false;
    CompletionStatus status = CompletionStatus::kOk;
    util::Status submitted = submit(Opcode::kWrite, vlba, nblocks, buffer,
                                    [&](CompletionStatus s) {
                                        finished = true;
                                        status = s;
                                    });
    if (!submitted.is_ok()) {
        (void)host_memory_.free(buffer);
        return submitted;
    }
    while (!finished) {
        if (!simulator_.step()) {
            (void)host_memory_.free(buffer);
            return util::internal_error("device hung: no completion");
        }
    }
    (void)host_memory_.free(buffer);
    if (status != CompletionStatus::kOk)
        return completion_to_status(status);
    return util::Status::ok();
}

} // namespace nesc::drv
