#include "service/daemon.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/campaign/atomic_file.hh"
#include "core/obs/json.hh"
#include "core/obs/log.hh"
#include "core/obs/metrics.hh"
#include "core/obs/prometheus.hh"
#include "core/obs/trace.hh"
#include "core/solver_cache.hh"
#include "core/types.hh"
#include "service/flight_recorder.hh"
#include "service/latency_histogram.hh"
#include "service/mpmc_queue.hh"
#include "service/protocol.hh"
#include "service/trace_context.hh"

namespace swcc::service
{

namespace
{

/** Submission queue capacity (power of two; ~100x a full batch). */
constexpr std::size_t kQueueCapacity = 8192;

/** Connection read chunk size. */
constexpr std::size_t kReadChunk = 64 * 1024;

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

} // namespace

namespace
{

/**
 * One response slot, owned by its connection, completed exactly once
 * (by a worker, or inline on the connection thread for control and
 * error responses).
 */
struct Pending
{
    std::vector<std::uint8_t> response;
    std::atomic<bool> done{false};
    /** For the send-stage flow event when the response is flushed. */
    std::uint64_t traceId = 0;
};

struct Connection;

/** One decoded, validated query travelling to a batching worker. */
struct Submission
{
    Query query;
    Connection *conn = nullptr;
    Pending *slot = nullptr;
    bool json = false;
    TraceContext trace;
    /** Daemon-clock nanoseconds: decode start and queue entry. */
    std::uint64_t decodeNs = 0;
    std::uint64_t enqueueNs = 0;
};

/**
 * Per-worker latency telemetry. Single-writer (the owning worker)
 * under a mutex taken once per batch; scrapes copy under the same
 * mutex, so a scrape costs the worker at most one histogram copy.
 */
struct WorkerTelemetry
{
    std::mutex mutex;
    /** Decode-to-completion latency per query (ns). */
    LatencyHistogram request;
    /** Submission-queue wait per query (ns). */
    LatencyHistogram queueWait;
    /** Whole-batch solver time per batch (ns). */
    LatencyHistogram solve;
    /** Queries per batch. */
    LatencyHistogram batchSize;
};

} // namespace

struct ServiceDaemon::Impl
{
    explicit Impl(DaemonConfig cfg)
        : config(std::move(cfg)), kernel(config.limits),
          flight(config.flightRecords), queue(kQueueCapacity)
    {
        if (config.batchMax == 0) {
            config.batchMax = 1;
        }
        if (config.workers == 0) {
            config.workers = 1;
        }
        workerStats.reserve(config.workers);
        for (unsigned i = 0; i < config.workers; ++i) {
            workerStats.push_back(
                std::make_unique<WorkerTelemetry>());
        }
    }

    DaemonConfig config;
    ServiceKernel kernel;

    /** Telemetry timebase: all *Ns stamps count from this epoch. */
    const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();

    std::uint64_t
    nowNs() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch)
                .count());
    }

    /** Trace ids start at 1 so 0 always means "untraced". */
    std::atomic<std::uint64_t> nextTraceId{1};

    FlightRecorder flight;
    std::vector<std::unique_ptr<WorkerTelemetry>> workerStats;

    MpmcQueue<Submission> queue;
    std::atomic<std::size_t> queued{0};
    std::mutex submitMutex;
    std::condition_variable submitCv;
    std::atomic<int> sleepers{0};
    std::atomic<bool> workersStop{false};

    int listenFd = -1;
    int stopPipe[2] = {-1, -1};
    std::atomic<bool> stopping{false};
    std::atomic<bool> started{false};
    std::atomic<bool> stopped{false};

    std::thread acceptor;
    std::vector<std::thread> workers;
    mutable std::mutex connectionsMutex;
    std::vector<std::unique_ptr<Connection>> connections;

    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> refused{0};
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> validationErrors{0};
    std::atomic<std::uint64_t> protocolErrors{0};
    std::atomic<std::int64_t> inflight{0};

#if SWCC_OBS_ENABLED
    obs::Counter *mQueries = nullptr;
    obs::Counter *mBatches = nullptr;
    obs::Counter *mValidationErrors = nullptr;
    obs::Counter *mProtocolErrors = nullptr;
    obs::Counter *mConnections = nullptr;
    obs::Histogram *mBatchSize = nullptr;
    obs::Histogram *mQueueWaitUs = nullptr;

    /** Interned span/flow names (decode → queue → batch → solve →
     * send, all flow events keyed "svc.query"). */
    std::uint32_t nDecode = 0;
    std::uint32_t nQueue = 0;
    std::uint32_t nBatch = 0;
    std::uint32_t nSolve = 0;
    std::uint32_t nSend = 0;
    std::uint32_t nFlow = 0;
#endif

    void acceptLoop();
    void workerLoop(unsigned index);
    void workerBody(unsigned index);
    void submit(Submission sub);
    std::string buildStatsJson() const;
    std::string buildScrape() const;
    std::string dumpFlight() const;
    void reapFinished(bool join_all);
};

namespace
{

/** Per-client state and thread body. */
struct Connection
{
    Connection(ServiceDaemon::Impl &daemon, int fd)
        : daemon_(daemon), fd_(fd)
    {
    }

    /** Worker side: publish a finished response (no wakeup yet). */
    static void
    complete(Pending *slot, std::vector<std::uint8_t> response)
    {
        slot->response = std::move(response);
        slot->done.store(true, std::memory_order_release);
    }

    /**
     * Worker side: wake the flusher after a run of complete() calls —
     * one lock+notify per connection per batch, not per response.
     * The empty critical section serializes against the flusher's
     * predicate-check-then-sleep window.
     */
    void
    wake()
    {
        { std::lock_guard<std::mutex> lock(mutex_); }
        cv_.notify_one();
    }

    void
    run()
    {
        std::vector<std::uint8_t> buffer;
        std::size_t offset = 0;
        bool close_requested = false;
        while (!close_requested) {
            if (!pending_.empty()) {
                waitAndFlushHead();
                continue;
            }
            struct pollfd fds[2];
            fds[0] = {fd_, POLLIN, 0};
            fds[1] = {daemon_.stopPipe[0], POLLIN, 0};
            if (::poll(fds, 2, -1) < 0) {
                if (errno == EINTR) {
                    continue;
                }
                break;
            }
            if (daemon_.stopping.load(std::memory_order_acquire)) {
                // Drain whatever the client already sent, answer it,
                // then leave: an accepted request is always served.
                readAvailable(buffer);
                processBuffer(buffer, offset, close_requested);
                break;
            }
            if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
                continue;
            }
            if (!readAvailable(buffer)) {
                if (buffer.size() > offset) {
                    // Mid-request disconnect: a partial frame was
                    // abandoned. Per-connection only; just count it.
                    daemon_.protocolErrors.fetch_add(
                        1, std::memory_order_relaxed);
#if SWCC_OBS_ENABLED
                    daemon_.mProtocolErrors->add();
#endif
                }
                break;
            }
            processBuffer(buffer, offset, close_requested);
        }
        drainPending();
        closeFd(fd_);
        finished.store(true, std::memory_order_release);
    }

    std::thread thread;
    std::atomic<bool> finished{false};
    /**
     * Submissions a worker may still touch (slot fill + wake()).
     * Reaping requires finished && workerRefs == 0, otherwise a
     * worker could call wake() on a destroyed connection.
     */
    std::atomic<std::uint64_t> workerRefs{0};

  private:
    /**
     * Non-blocking reads until EAGAIN; false once the peer has
     * disconnected (EOF or hard error).
     */
    bool
    readAvailable(std::vector<std::uint8_t> &buffer)
    {
        for (;;) {
            std::uint8_t chunk[kReadChunk];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n > 0) {
                buffer.insert(buffer.end(), chunk, chunk + n);
                if (static_cast<std::size_t>(n) < sizeof chunk) {
                    return true;
                }
                continue;
            }
            if (n == 0) {
                peerClosed_ = true;
                return false;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                return true;
            }
            if (errno == EINTR) {
                continue;
            }
            peerClosed_ = true;
            return false;
        }
    }

    /** Decodes every complete frame in the buffer and dispatches it. */
    void
    processBuffer(std::vector<std::uint8_t> &buffer,
                  std::size_t &offset, bool &close_requested)
    {
        while (!close_requested) {
            RequestFrame frame;
            std::string error;
            std::size_t consumed = 0;
            const std::uint64_t decodeNs = daemon_.nowNs();
#if SWCC_OBS_ENABLED
            const double decodeStartUs =
                obs::tracer().enabled() ? obs::tracer().nowUs() : 0.0;
#else
            const double decodeStartUs = 0.0;
#endif
            const DecodeStatus status =
                decodeRequest(buffer.data() + offset,
                              buffer.size() - offset, consumed, frame,
                              error);
            if (status == DecodeStatus::NeedMore) {
                break;
            }
            if (status == DecodeStatus::BadFrame) {
                daemon_.protocolErrors.fetch_add(
                    1, std::memory_order_relaxed);
#if SWCC_OBS_ENABLED
                daemon_.mProtocolErrors->add();
#endif
                // Framing is lost: answer once, then close. Guess the
                // response dialect from the first byte.
                const bool json =
                    buffer.size() > offset && buffer[offset] == '{';
                completeInline(ResponseStatus::BadRequest, error,
                               json);
                close_requested = true;
                break;
            }
            offset += consumed;
            dispatch(frame, decodeNs, decodeStartUs);
        }
        if (offset > 0) {
            buffer.erase(buffer.begin(),
                         buffer.begin() +
                             static_cast<std::ptrdiff_t>(offset));
            offset = 0;
        }
        // Opportunistic flush of anything already answered inline.
        flushDonePrefix();
    }

    /** Routes one well-framed request. */
    void
    dispatch(RequestFrame &frame, std::uint64_t decodeNs,
             double decodeStartUs)
    {
        (void)decodeStartUs;
        if (!frame.fieldError.empty()) {
            daemon_.validationErrors.fetch_add(
                1, std::memory_order_relaxed);
#if SWCC_OBS_ENABLED
            daemon_.mValidationErrors->add();
#endif
            completeInline(ResponseStatus::BadRequest,
                           frame.fieldError, frame.json);
            return;
        }
        switch (frame.kind) {
          case RequestKind::Stats:
            completeInline(ResponseStatus::Ok,
                           daemon_.buildStatsJson(), frame.json);
            return;
          case RequestKind::Scrape: {
            const std::string text = daemon_.buildScrape();
            // The JSON dialect answers with one JSON line, so the
            // multi-line exposition text travels as an escaped field.
            completeInline(ResponseStatus::Ok,
                           frame.json
                               ? "{\"ok\":true,\"scrape\":\"" +
                                   obs::jsonEscape(text) + "\"}"
                               : text,
                           frame.json);
            return;
          }
          case RequestKind::Ping:
            completeInline(ResponseStatus::Ok,
                           frame.json ? "{\"ok\":true,\"pong\":true}"
                                      : "pong",
                           frame.json);
            return;
          case RequestKind::Query:
            break;
        }
        // Field validation happens here, on the connection thread, so
        // a malformed query costs the workers nothing.
        std::string error = daemon_.kernel.validate(frame.query);
        if (!error.empty()) {
            daemon_.validationErrors.fetch_add(
                1, std::memory_order_relaxed);
#if SWCC_OBS_ENABLED
            daemon_.mValidationErrors->add();
#endif
            QueryResult result;
            result.domain = frame.query.domain;
            result.error = std::move(error);
            std::vector<std::uint8_t> response;
            appendQueryResponse(response, result, frame.json);
            pushDoneSlot(std::move(response));
            return;
        }
        frame.trace.traceId = daemon_.nextTraceId.fetch_add(
            1, std::memory_order_relaxed);
        frame.trace.spanId = 1;
        auto slot = std::make_unique<Pending>();
        slot->traceId = frame.trace.traceId;
        Submission sub;
        sub.query = frame.query;
        sub.conn = this;
        sub.slot = slot.get();
        sub.json = frame.json;
        sub.trace = frame.trace;
        sub.decodeNs = decodeNs;
        pending_.push_back(std::move(slot));
#if SWCC_OBS_ENABLED
        obs::TraceRecorder &trc = obs::tracer();
        if (trc.enabled()) {
            const std::int32_t tid = trc.callerTid();
            if (!threadNamed_) {
                threadNamed_ = true;
                trc.setThreadName(obs::TraceRecorder::kWallPid, tid,
                                  "swccd.conn");
            }
            const double now = trc.nowUs();
            trc.recordComplete(daemon_.nDecode,
                               obs::TraceRecorder::kWallPid, tid,
                               decodeStartUs, now - decodeStartUs);
            // Flow start binds inside the decode slice; the async
            // queue interval ends on whichever worker pops it.
            trc.recordFlowStart(daemon_.nFlow,
                                obs::TraceRecorder::kWallPid, tid,
                                (decodeStartUs + now) * 0.5,
                                sub.trace.traceId);
            trc.recordAsyncBegin(daemon_.nQueue,
                                 obs::TraceRecorder::kWallPid, tid,
                                 now, sub.trace.traceId);
        }
#endif
        sub.enqueueNs = daemon_.nowNs();
        workerRefs.fetch_add(1, std::memory_order_acq_rel);
        daemon_.submit(std::move(sub));
    }

    /** Queues an already-encoded (or text) response, in order. */
    void
    completeInline(ResponseStatus status, std::string_view text,
                   bool json)
    {
        std::vector<std::uint8_t> response;
        appendTextResponse(response, status, text, json);
        pushDoneSlot(std::move(response));
    }

    void
    pushDoneSlot(std::vector<std::uint8_t> response)
    {
        auto slot = std::make_unique<Pending>();
        slot->response = std::move(response);
        slot->done.store(true, std::memory_order_release);
        pending_.push_back(std::move(slot));
    }

    /** Sleeps until the head response is ready, then writes a burst. */
    void
    waitAndFlushHead()
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] {
                return pending_.front()->done.load(
                    std::memory_order_acquire);
            });
        }
        flushDonePrefix();
    }

    /**
     * Writes every contiguous completed response from the head of the
     * queue in one syscall burst (the response-side batching: a
     * worker batch completes together and leaves here together).
     */
    void
    flushDonePrefix()
    {
        scratch_.clear();
#if SWCC_OBS_ENABLED
        flushedIds_.clear();
#endif
        while (!pending_.empty() &&
               pending_.front()->done.load(std::memory_order_acquire)) {
#if SWCC_OBS_ENABLED
            if (pending_.front()->traceId != 0) {
                flushedIds_.push_back(pending_.front()->traceId);
            }
#endif
            std::vector<std::uint8_t> &r = pending_.front()->response;
            scratch_.insert(scratch_.end(), r.begin(), r.end());
            pending_.pop_front();
        }
        if (scratch_.empty() || writeFailed_ || peerClosed_) {
            return;
        }
#if SWCC_OBS_ENABLED
        obs::TraceRecorder &trc = obs::tracer();
        const bool tracing = trc.enabled();
        const double sendStartUs = tracing ? trc.nowUs() : 0.0;
#endif
        std::size_t sent = 0;
        while (sent < scratch_.size()) {
            const ssize_t n =
                ::send(fd_, scratch_.data() + sent,
                       scratch_.size() - sent, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR) {
                    continue;
                }
                if (errno == EAGAIN || errno == EWOULDBLOCK) {
                    // Blocking would stall decoding; poll for space.
                    struct pollfd pfd = {fd_, POLLOUT, 0};
                    ::poll(&pfd, 1, 1000);
                    continue;
                }
                writeFailed_ = true; // Peer gone; drop the rest.
                return;
            }
            sent += static_cast<std::size_t>(n);
        }
#if SWCC_OBS_ENABLED
        if (tracing && !flushedIds_.empty()) {
            const std::int32_t tid = trc.callerTid();
            const double sendEndUs = trc.nowUs();
            trc.recordComplete(daemon_.nSend,
                               obs::TraceRecorder::kWallPid, tid,
                               sendStartUs, sendEndUs - sendStartUs);
            // Flow arrows terminate inside the send slice.
            const double midUs = (sendStartUs + sendEndUs) * 0.5;
            for (const std::uint64_t id : flushedIds_) {
                trc.recordFlowEnd(daemon_.nFlow,
                                  obs::TraceRecorder::kWallPid, tid,
                                  midUs, id);
            }
        }
#endif
    }

    /** Waits out every in-flight submission before the thread exits. */
    void
    drainPending()
    {
        while (!pending_.empty()) {
            waitAndFlushHead();
        }
    }

    ServiceDaemon::Impl &daemon_;
    int fd_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::unique_ptr<Pending>> pending_;
    std::vector<std::uint8_t> scratch_;
#if SWCC_OBS_ENABLED
    std::vector<std::uint64_t> flushedIds_;
    bool threadNamed_ = false;
#endif
    bool writeFailed_ = false;
    bool peerClosed_ = false;
};

} // namespace

void
ServiceDaemon::Impl::submit(Submission sub)
{
    inflight.fetch_add(1, std::memory_order_relaxed);
    while (!queue.tryPush(sub)) {
        std::this_thread::yield(); // Backpressure: workers are behind.
    }
    // seq_cst on both sides: the worker publishes sleepers before
    // reading queued, we publish queued before reading sleepers —
    // anything weaker lets both sides read stale zeros (store-buffer
    // reordering) and lose the wakeup.
    queued.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers.load(std::memory_order_seq_cst) > 0) {
        // The empty critical section pairs with the worker's
        // predicate check, closing the check-then-sleep window.
        { std::lock_guard<std::mutex> lock(submitMutex); }
        submitCv.notify_one();
    }
}

void
ServiceDaemon::Impl::workerLoop(unsigned index)
{
    try {
        workerBody(index);
    } catch (const std::exception &e) {
        // A dying worker strands its in-flight queries; dump the
        // flight recorder so the post-mortem shows what it was doing.
        SWCC_LOG_ERROR("swccd worker " + std::to_string(index) +
                       " died: " + e.what());
        try {
            SWCC_LOG_ERROR("flight recorder dumped to " + dumpFlight());
        } catch (const std::exception &dump_error) {
            SWCC_LOG_ERROR(std::string("flight-recorder dump failed: ") +
                           dump_error.what());
        }
    }
}

void
ServiceDaemon::Impl::workerBody(unsigned index)
{
    WorkerTelemetry &telemetry = *workerStats[index];
    const bool slowLog = config.slowQueryUs > 0;
    std::vector<Submission> batch;
    std::vector<Query> batchQueries;
    std::vector<QueryResult> batchResults;
    std::vector<Connection *> waking;
    batch.reserve(config.batchMax);
#if SWCC_OBS_ENABLED
    obs::TraceRecorder &trc = obs::tracer();
    if (trc.enabled()) {
        trc.setThreadName(obs::TraceRecorder::kWallPid,
                          trc.callerTid(),
                          "swccd.worker" + std::to_string(index));
    }
#endif
    for (;;) {
        batch.clear();
        Submission sub;
        while (batch.size() < config.batchMax && queue.tryPop(sub)) {
            batch.push_back(std::move(sub));
        }
        if (batch.empty()) {
            std::unique_lock<std::mutex> lock(submitMutex);
            sleepers.fetch_add(1, std::memory_order_seq_cst);
            submitCv.wait(lock, [this] {
                return queued.load(std::memory_order_seq_cst) > 0 ||
                    workersStop.load(std::memory_order_acquire);
            });
            sleepers.fetch_sub(1, std::memory_order_seq_cst);
            if (workersStop.load(std::memory_order_acquire) &&
                queued.load(std::memory_order_acquire) == 0) {
                return;
            }
            continue;
        }
        queued.fetch_sub(batch.size(), std::memory_order_release);
        const std::uint64_t popNs = nowNs();

#if SWCC_OBS_ENABLED
        const bool tracing = trc.enabled();
        const std::int32_t tid = tracing ? trc.callerTid() : 0;
        const double batchStartUs = tracing ? trc.nowUs() : 0.0;
        if (tracing) {
            // Close each member's cross-thread queue interval here,
            // on the worker that picked it up.
            for (const Submission &s : batch) {
                trc.recordAsyncEnd(nQueue,
                                   obs::TraceRecorder::kWallPid, tid,
                                   batchStartUs, s.trace.traceId);
            }
        }
#endif
        const SolverCacheStats cacheBefore =
            slowLog ? solverCacheStats() : SolverCacheStats{};

        batchQueries.clear();
        batchResults.clear();
        batchQueries.reserve(batch.size());
        batchResults.resize(batch.size());
        for (const Submission &s : batch) {
            batchQueries.push_back(s.query);
        }
        const std::uint64_t solveStartNs = nowNs();
#if SWCC_OBS_ENABLED
        const double solveStartUs = tracing ? trc.nowUs() : 0.0;
#endif
        kernel.evaluateBatch(batchQueries.data(), batchQueries.size(),
                             batchResults.data());
        const std::uint64_t solveNs = nowNs() - solveStartNs;
#if SWCC_OBS_ENABLED
        if (tracing) {
            const double solveEndUs = trc.nowUs();
            trc.recordComplete(nSolve, obs::TraceRecorder::kWallPid,
                               tid, solveStartUs,
                               solveEndUs - solveStartUs);
            // One flow step per member, landing inside the solve
            // slice — this is what links a batch to all its queries.
            const double midUs = (solveStartUs + solveEndUs) * 0.5;
            for (const Submission &s : batch) {
                trc.recordFlowStep(nFlow,
                                   obs::TraceRecorder::kWallPid, tid,
                                   midUs, s.trace.traceId);
            }
        }
#endif

        queries.fetch_add(batch.size(), std::memory_order_relaxed);
        batches.fetch_add(1, std::memory_order_relaxed);
#if SWCC_OBS_ENABLED
        mQueries->add(batch.size());
        mBatches->add();
        mBatchSize->observe(static_cast<double>(batch.size()));
#endif
        waking.clear();
        for (std::size_t i = 0; i < batch.size(); ++i) {
            std::vector<std::uint8_t> response;
            appendQueryResponse(response, batchResults[i],
                                batch[i].json);
            Connection::complete(batch[i].slot, std::move(response));
            inflight.fetch_sub(1, std::memory_order_relaxed);
            if (std::find(waking.begin(), waking.end(),
                          batch[i].conn) == waking.end()) {
                waking.push_back(batch[i].conn);
            }
        }
        const std::uint64_t completeNs = nowNs();
        for (Connection *conn : waking) {
            conn->wake();
        }
#if SWCC_OBS_ENABLED
        if (tracing) {
            trc.recordComplete(nBatch, obs::TraceRecorder::kWallPid,
                               tid, batchStartUs,
                               trc.nowUs() - batchStartUs);
        }
#endif

        // Telemetry happens after the wakes so the flush path never
        // waits on it; slots must not be touched past this point.
        {
            std::lock_guard<std::mutex> lock(telemetry.mutex);
            telemetry.batchSize.record(batch.size());
            telemetry.solve.record(solveNs);
            for (const Submission &s : batch) {
                telemetry.queueWait.record(popNs - s.enqueueNs);
                telemetry.request.record(completeNs - s.decodeNs);
            }
        }
#if SWCC_OBS_ENABLED
        for (const Submission &s : batch) {
            mQueueWaitUs->observe(
                static_cast<double>(popNs - s.enqueueNs) / 1000.0);
        }
#endif
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const Submission &s = batch[i];
            FlightRecord record;
            record.traceId = s.trace.traceId;
            record.decodeNs = s.decodeNs;
            record.queueWaitNs = popNs - s.enqueueNs;
            record.solveNs = solveNs;
            record.totalNs = completeNs - s.decodeNs;
            record.batchSize =
                static_cast<std::uint32_t>(batch.size());
            record.size = s.query.size;
            record.domain = s.query.domain;
            record.scheme = s.query.scheme;
            record.ok = batchResults[i].error.empty();
            flight.record(record);
        }
        if (slowLog) {
            const SolverCacheStats cacheAfter = solverCacheStats();
            for (std::size_t i = 0; i < batch.size(); ++i) {
                const Submission &s = batch[i];
                const std::uint64_t totalNs = completeNs - s.decodeNs;
                if (totalNs < config.slowQueryUs * 1000) {
                    continue;
                }
                // One record per slow query, by design: this is the
                // per-event path, not the once-per-site SWCC_LOG_WARN.
                SWCC_LOG_AT(
                    ::swcc::obs::LogLevel::Warn,
                    "{\"slow_query\":{\"trace_id\":" +
                    std::to_string(s.trace.traceId) +
                    ",\"domain\":\"" +
                    std::string(domainName(s.query.domain)) +
                    "\",\"scheme\":\"" +
                    std::string(schemeName(s.query.scheme)) +
                    "\",\"size\":" + std::to_string(s.query.size) +
                    ",\"queue_wait_us\":" +
                    std::to_string((popNs - s.enqueueNs) / 1000) +
                    ",\"solve_us\":" +
                    std::to_string(solveNs / 1000) +
                    ",\"total_us\":" + std::to_string(totalNs / 1000) +
                    ",\"batch_size\":" +
                    std::to_string(batch.size()) +
                    ",\"cache_hits\":" +
                    std::to_string(cacheAfter.hits - cacheBefore.hits) +
                    ",\"cache_misses\":" +
                    std::to_string(cacheAfter.misses -
                                   cacheBefore.misses) +
                    "}}");
            }
        }
        // Release the connections only after the wakes: a connection
        // with workerRefs > 0 is never reaped.
        for (const Submission &s : batch) {
            s.conn->workerRefs.fetch_sub(1,
                                         std::memory_order_release);
        }
    }
}

void
ServiceDaemon::Impl::acceptLoop()
{
    for (;;) {
        struct pollfd fds[2];
        fds[0] = {listenFd, POLLIN, 0};
        fds[1] = {stopPipe[0], POLLIN, 0};
        if (::poll(fds, 2, -1) < 0) {
            if (errno == EINTR) {
                continue;
            }
            return;
        }
        if (stopping.load(std::memory_order_acquire)) {
            return;
        }
        if ((fds[0].revents & POLLIN) == 0) {
            continue;
        }
        const int cfd =
            ::accept4(listenFd, nullptr, nullptr,
                      SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (cfd < 0) {
            continue;
        }
        reapFinished(false);
        std::lock_guard<std::mutex> lock(connectionsMutex);
        if (connections.size() >= config.maxConnections) {
            refused.fetch_add(1, std::memory_order_relaxed);
            ::close(cfd);
            continue;
        }
        accepted.fetch_add(1, std::memory_order_relaxed);
#if SWCC_OBS_ENABLED
        mConnections->add();
#endif
        auto conn = std::make_unique<Connection>(*this, cfd);
        Connection *raw = conn.get();
        conn->thread = std::thread([raw] { raw->run(); });
        connections.push_back(std::move(conn));
    }
}

void
ServiceDaemon::Impl::reapFinished(bool join_all)
{
    std::lock_guard<std::mutex> lock(connectionsMutex);
    auto it = connections.begin();
    while (it != connections.end()) {
        Connection &conn = **it;
        const bool drained = conn.finished.load(
                                 std::memory_order_acquire) &&
            conn.workerRefs.load(std::memory_order_acquire) == 0;
        if (drained || join_all) {
            if (conn.thread.joinable()) {
                conn.thread.join();
            }
            // Joined means all its responses completed; wait out a
            // worker still inside its final wake() call.
            while (conn.workerRefs.load(std::memory_order_acquire) >
                   0) {
                std::this_thread::yield();
            }
            it = connections.erase(it);
        } else {
            ++it;
        }
    }
}

std::string
ServiceDaemon::Impl::buildStatsJson() const
{
    const SolverCacheStats cache = solverCacheStats();
    std::string out = "{\"ok\":true,\"daemon\":{";
    const auto field = [&out](std::string_view name,
                              std::uint64_t value, bool comma = true) {
        out += '"';
        out += name;
        out += "\":";
        out += std::to_string(value);
        if (comma) {
            out += ',';
        }
    };
    field("connections_accepted",
          accepted.load(std::memory_order_relaxed));
    field("connections_refused",
          refused.load(std::memory_order_relaxed));
    field("queries", queries.load(std::memory_order_relaxed));
    field("batches", batches.load(std::memory_order_relaxed));
    field("validation_errors",
          validationErrors.load(std::memory_order_relaxed));
    field("protocol_errors",
          protocolErrors.load(std::memory_order_relaxed));
    field("inflight",
          static_cast<std::uint64_t>(std::max<std::int64_t>(
              0, inflight.load(std::memory_order_relaxed))));
    field("workers", config.workers);
    field("batch_max", config.batchMax, false);
    out += "},\"solver_cache\":{";
    field("hits", cache.hits);
    field("misses", cache.misses);
    field("evictions", cache.evictions, false);
    out += "}}";
    return out;
}

namespace
{

/**
 * Converts a merged LatencyHistogram (nanoseconds) to a sparse
 * MetricSnapshot in the given unit. Only occupied buckets become
 * `le` bounds, and adjacent occupied buckets closer than 1/32
 * (3.125%) apart are coalesced into the higher bound — a long-lived
 * daemon occupies hundreds of the ~1.9k 1.6%-spaced buckets, and a
 * 10 Hz scraper should not pay for resolution no dashboard can
 * show. Folding counts upward keeps every `le` line a correct
 * cumulative count; derived quantiles read at most 3.1% high.
 */
obs::MetricSnapshot
histogramSnapshot(std::string name, const LatencyHistogram &hist,
                  double scale)
{
    obs::MetricSnapshot snap;
    snap.name = std::move(name);
    snap.kind = obs::MetricSnapshot::Kind::Histogram;
    snap.count = hist.count();
    snap.sum = static_cast<double>(hist.sum()) * scale;
    const std::vector<std::uint64_t> &buckets = hist.buckets();
    std::uint64_t pending = 0;
    double pendingBound = 0.0;
    double anchor = -1.0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0) {
            continue;
        }
        const double bound =
            static_cast<double>(
                LatencyHistogram::bucketUpperBound(i)) *
            scale;
        if (anchor > 0.0 && bound <= anchor * (1.0 + 1.0 / 32)) {
            // Within 3.125% of the run's first bound: fold upward.
            pending += buckets[i];
            pendingBound = bound;
            continue;
        }
        if (pending > 0) {
            snap.bounds.push_back(pendingBound);
            snap.counts.push_back(pending);
        }
        anchor = bound;
        pending = buckets[i];
        pendingBound = bound;
    }
    if (pending > 0) {
        snap.bounds.push_back(pendingBound);
        snap.counts.push_back(pending);
    }
    // The +Inf bucket (counts has bounds.size() + 1 entries).
    snap.counts.push_back(0);
    return snap;
}

obs::MetricSnapshot
scalarSnapshot(std::string name, obs::MetricSnapshot::Kind kind,
               double value)
{
    obs::MetricSnapshot snap;
    snap.name = std::move(name);
    snap.kind = kind;
    snap.value = value;
    return snap;
}

} // namespace

std::string
ServiceDaemon::Impl::buildScrape() const
{
    using Kind = obs::MetricSnapshot::Kind;
    const SolverCacheStats cache = solverCacheStats();

    // Manual section first: always-on atomics plus gauges sampled at
    // scrape time. These stay meaningful under SWCC_OBS=OFF.
    std::vector<obs::MetricSnapshot> snaps;
    const auto counter = [&](std::string name, std::uint64_t value) {
        snaps.push_back(scalarSnapshot(std::move(name), Kind::Counter,
                                       static_cast<double>(value)));
    };
    const auto gauge = [&](std::string name, double value) {
        snaps.push_back(
            scalarSnapshot(std::move(name), Kind::Gauge, value));
    };
    counter("service.queries",
            queries.load(std::memory_order_relaxed));
    counter("service.batches",
            batches.load(std::memory_order_relaxed));
    counter("service.connections_accepted",
            accepted.load(std::memory_order_relaxed));
    counter("service.connections_refused",
            refused.load(std::memory_order_relaxed));
    counter("service.validation_errors",
            validationErrors.load(std::memory_order_relaxed));
    counter("service.protocol_errors",
            protocolErrors.load(std::memory_order_relaxed));
    counter("solver_cache.hits", cache.hits);
    counter("solver_cache.misses", cache.misses);
    counter("solver_cache.evictions", cache.evictions);
    gauge("service.inflight",
          static_cast<double>(std::max<std::int64_t>(
              0, inflight.load(std::memory_order_relaxed))));
    gauge("service.queue_depth",
          static_cast<double>(queued.load(std::memory_order_relaxed)));
    {
        std::lock_guard<std::mutex> lock(connectionsMutex);
        gauge("service.connections_active",
              static_cast<double>(connections.size()));
    }
    gauge("service.workers", static_cast<double>(config.workers));
    gauge("service.batch_limit",
          static_cast<double>(config.batchMax));
    gauge("service.flight_records",
          static_cast<double>(std::min<std::uint64_t>(
              flight.totalRecorded(), flight.capacity())));

    // Merged per-worker latency histograms, in microseconds.
    LatencyHistogram request;
    LatencyHistogram queueWait;
    LatencyHistogram solve;
    LatencyHistogram batchSize;
    for (const auto &stats : workerStats) {
        std::lock_guard<std::mutex> lock(stats->mutex);
        request.merge(stats->request);
        queueWait.merge(stats->queueWait);
        solve.merge(stats->solve);
        batchSize.merge(stats->batchSize);
    }
    constexpr double kNsToUs = 1.0 / 1000.0;
    snaps.push_back(
        histogramSnapshot("service.request_us", request, kNsToUs));
    snaps.push_back(histogramSnapshot("service.queue_wait_us",
                                      queueWait, kNsToUs));
    snaps.push_back(
        histogramSnapshot("service.solve_us", solve, kNsToUs));
    snaps.push_back(
        histogramSnapshot("service.batch_size", batchSize, 1.0));

    std::string out;
    std::set<std::string> families;
    for (const obs::MetricSnapshot &snap : snaps) {
        families.insert(obs::promFamilyName(snap));
        obs::appendPrometheus(out, snap);
    }
    // Registry metrics ride along when compiled in; families already
    // rendered from live atomics above win (e.g. service_queries).
    for (const obs::MetricSnapshot &snap :
         obs::metrics().snapshot()) {
        if (families.insert(obs::promFamilyName(snap)).second) {
            obs::appendPrometheus(out, snap);
        }
    }
    return out;
}

std::string
ServiceDaemon::Impl::dumpFlight() const
{
    const std::string path = config.flightRecorderPath.empty()
        ? config.socketPath + ".flight.json"
        : config.flightRecorderPath;
    const std::string json = flight.toJson();
    campaign::atomicWriteFile(
        path, [&](std::ostream &os) { os << json; });
    return path;
}

ServiceDaemon::ServiceDaemon(DaemonConfig config)
    : impl_(std::make_unique<Impl>(std::move(config)))
{
}

ServiceDaemon::~ServiceDaemon()
{
    stop();
}

void
ServiceDaemon::start()
{
    Impl &impl = *impl_;
    if (impl.started.load()) {
        throw std::logic_error("daemon already started");
    }
    const std::string &path = impl.config.socketPath;
    sockaddr_un addr{};
    if (path.empty() || path.size() >= sizeof addr.sun_path) {
        throw std::runtime_error(
            "socket path empty or too long for a unix socket: " +
            path);
    }
    if (::pipe(impl.stopPipe) != 0) {
        throw std::runtime_error("cannot create stop pipe");
    }
    impl.listenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (impl.listenFd < 0) {
        throw std::runtime_error("cannot create unix socket");
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ::unlink(path.c_str()); // Replace a stale socket file.
    if (::bind(impl.listenFd,
               reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(impl.listenFd, 256) != 0) {
        const int saved = errno;
        closeFd(impl.listenFd);
        throw std::runtime_error("cannot bind " + path + ": " +
                                 std::strerror(saved));
    }
#if SWCC_OBS_ENABLED
    obs::MetricsRegistry &registry = obs::metrics();
    impl.mQueries = &registry.counter("service.queries");
    impl.mBatches = &registry.counter("service.batches");
    impl.mValidationErrors =
        &registry.counter("service.validation_errors");
    impl.mProtocolErrors = &registry.counter("service.protocol_errors");
    impl.mConnections = &registry.counter("service.connections");
    impl.mBatchSize = &registry.histogram(
        "service.batch_size", {1, 2, 4, 8, 16, 32, 64, 128});
    impl.mQueueWaitUs = &registry.histogram(
        "service.queue_wait_us",
        {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
         20000, 50000, 100000});
    registry.gauge("service.workers")
        .set(static_cast<double>(impl.config.workers));
    registry.gauge("service.batch_limit")
        .set(static_cast<double>(impl.config.batchMax));
    obs::TraceRecorder &trc = obs::tracer();
    impl.nDecode = trc.intern("svc.decode");
    impl.nQueue = trc.intern("svc.queue");
    impl.nBatch = trc.intern("svc.batch");
    impl.nSolve = trc.intern("svc.solve");
    impl.nSend = trc.intern("svc.send");
    impl.nFlow = trc.intern("svc.query");
#endif
    impl.workers.reserve(impl.config.workers);
    for (unsigned i = 0; i < impl.config.workers; ++i) {
        impl.workers.emplace_back(
            [this, i] { impl_->workerLoop(i); });
    }
    impl.acceptor = std::thread([this] { impl_->acceptLoop(); });
    impl.started.store(true);
    SWCC_LOG_INFO("swccd listening on " + path + " (" +
                  std::to_string(impl.config.workers) + " workers, " +
                  "batch<=" + std::to_string(impl.config.batchMax) +
                  ")");
}

void
ServiceDaemon::requestStop()
{
    Impl &impl = *impl_;
    impl.stopping.store(true, std::memory_order_release);
    if (impl.stopPipe[1] >= 0) {
        const char byte = 's';
        [[maybe_unused]] const ssize_t n =
            ::write(impl.stopPipe[1], &byte, 1);
    }
}

void
ServiceDaemon::stop()
{
    Impl &impl = *impl_;
    if (!impl.started.load() || impl.stopped.load()) {
        return;
    }
    requestStop();
    if (impl.acceptor.joinable()) {
        impl.acceptor.join();
    }
    // Connections flush their accepted work (workers still running),
    // then the workers drain and exit.
    impl.reapFinished(true);
    impl.workersStop.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(impl.submitMutex);
    }
    impl.submitCv.notify_all();
    for (std::thread &worker : impl.workers) {
        worker.join();
    }
    impl.workers.clear();
    closeFd(impl.listenFd);
    closeFd(impl.stopPipe[0]);
    closeFd(impl.stopPipe[1]);
    ::unlink(impl.config.socketPath.c_str());
    impl.stopped.store(true);
}

bool
ServiceDaemon::running() const
{
    return impl_->started.load() && !impl_->stopped.load();
}

const DaemonConfig &
ServiceDaemon::config() const
{
    return impl_->config;
}

DaemonStats
ServiceDaemon::stats() const
{
    const Impl &impl = *impl_;
    DaemonStats stats;
    stats.connectionsAccepted =
        impl.accepted.load(std::memory_order_relaxed);
    stats.connectionsRefused =
        impl.refused.load(std::memory_order_relaxed);
    stats.queries = impl.queries.load(std::memory_order_relaxed);
    stats.batches = impl.batches.load(std::memory_order_relaxed);
    stats.validationErrors =
        impl.validationErrors.load(std::memory_order_relaxed);
    stats.protocolErrors =
        impl.protocolErrors.load(std::memory_order_relaxed);
    return stats;
}

std::string
ServiceDaemon::statsJson() const
{
    return impl_->buildStatsJson();
}

std::string
ServiceDaemon::scrapeText() const
{
    return impl_->buildScrape();
}

std::string
ServiceDaemon::dumpFlightRecorder() const
{
    return impl_->dumpFlight();
}

} // namespace swcc::service
