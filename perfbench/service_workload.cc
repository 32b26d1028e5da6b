/**
 * @file
 * swccd-mix: an in-process ServiceDaemon (2 workers, batches of up to
 * 64) on a Unix socket, driven by 2 client connections: first a
 * closed-loop pipelined phase (one thread per connection), then an
 * open-loop phase at a fixed rate (one thread for both). This is the
 * only workload whose hot path is the solvers, request batching, the
 * solver memo and the wire protocol.
 *
 * Every reply is checked bitwise against a direct, memo-free
 * ServiceKernel::evaluate of the same query once the phases end.
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/parallel.hh"
#include "core/scheme_evaluator.hh"
#include "core/solver_cache.hh"
#include "core/workload.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/protocol.hh"
#include "service/service_kernel.hh"
#include "sim/mp/validation.hh"
#include "sim/synth/rng.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace swcc;
using namespace swcc::service;

constexpr unsigned kWorkers = 2;
constexpr unsigned kBatchMax = 64;
constexpr unsigned kConnections = 2;
/** Requests in flight per connection in the closed loop. */
constexpr std::size_t kWindow = 16;
/**
 * Open-loop rate over both connections, queries/s: about an eighth of
 * the closed-loop throughput measured when the benchmark was introduced
 * (about 180k/s on 4 cores). Load from other tenants of the host was
 * seen to cut that throughput to about 50k/s; at higher rates the open
 * loop then saturated, and latency measured the growing backlog.
 */
constexpr double kOpenLoopRate = 20'000.0;
constexpr std::size_t kHotSet = 32;
/** Queries per generator block: blocks regenerate independently. */
constexpr std::size_t kBlock = 1024;
/** Window over which the open loop's percentiles are taken. */
constexpr double kLatencyWindowS = 0.25;
/**
 * Shares of --seconds for the closed loop and the open loop; untraced
 * runs split the rest between the two simulation samples.
 */
constexpr double kClosedShare = 0.25;
constexpr double kOpenShare = 0.35;
/** How long unanswered queries may stay out after a phase ends. */
constexpr double kGraceS = 2.0;

enum class Phase : std::uint64_t
{
    Closed = 1,
    Open = 2,
    SelfTest = 3,
};

/** A fresh query inside the Table 7 ranges, over all schemes. */
Query
freshQuery(Rng &rng)
{
    static constexpr Scheme kBusSchemes[] = {
        Scheme::Base,  Scheme::NoCache, Scheme::SoftwareFlush,
        Scheme::Dragon, Scheme::Mesi,   Scheme::Mesif,
        Scheme::Moesi,  Scheme::Hybrid,
    };
    static constexpr Scheme kNetworkSchemes[] = {
        Scheme::Base, Scheme::NoCache, Scheme::SoftwareFlush};
    Query query;
    if (rng.below(8) == 0) {
        query.domain = QueryDomain::Network;
        query.scheme = kNetworkSchemes[rng.below(3)];
        query.size = 1 + static_cast<unsigned>(rng.below(10));
    } else {
        query.domain = QueryDomain::Bus;
        query.scheme = kBusSchemes[rng.below(8)];
        query.size = 1 + static_cast<unsigned>(rng.below(1024));
    }
    for (const ParamId id : kAllParams) {
        const double low = paramLevelValue(id, Level::Low);
        const double high = paramLevelValue(id, Level::High);
        setParam(query.params, id, low + (high - low) * rng.uniform());
    }
    return query;
}

/**
 * The seeded query stream: half the queries repeat one of 32 hot
 * operating points, half are fresh draws.
 */
class QueryStream
{
  public:
    explicit QueryStream(std::uint64_t seed) : root_(seed)
    {
        Rng rng = root_.split(0);
        for (std::size_t i = 0; i < kHotSet; ++i) {
            hot_.push_back(freshQuery(rng));
        }
    }

    /** Block @p block of connection @p conn's stream in @p phase. */
    std::vector<Query>
    block(Phase phase, unsigned conn, std::size_t block,
          std::vector<int> *hot_index = nullptr) const
    {
        Rng rng = root_.split(static_cast<std::uint64_t>(phase))
                      .split(conn)
                      .split(block);
        std::vector<Query> out;
        out.reserve(kBlock);
        for (std::size_t i = 0; i < kBlock; ++i) {
            const bool hot = rng.below(2) == 0;
            const std::size_t h = rng.below(kHotSet);
            out.push_back(hot ? hot_[h] : freshQuery(rng));
            if (hot_index != nullptr) {
                hot_index->push_back(hot ? static_cast<int>(h) : -1);
            }
        }
        return out;
    }

    const std::vector<Query> &hot() const { return hot_; }

  private:
    Rng root_;
    std::vector<Query> hot_;
};

/** Sequential reader over a connection's stream. */
class QueryCursor
{
  public:
    QueryCursor(const QueryStream &stream, Phase phase, unsigned conn)
        : stream_(stream), phase_(phase), conn_(conn)
    {
    }

    const Query &
    next()
    {
        if (offset_ == buffer_.size()) {
            buffer_ = stream_.block(phase_, conn_, block_++);
            offset_ = 0;
        }
        return buffer_[offset_++];
    }

  private:
    const QueryStream &stream_;
    Phase phase_;
    unsigned conn_;
    std::size_t block_ = 0;
    std::vector<Query> buffer_;
    std::size_t offset_ = 0;
};

void
mix(std::uint64_t &hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ull;
    }
}

void
mixDouble(std::uint64_t &hash, double value)
{
    mix(hash, std::bit_cast<std::uint64_t>(value));
}

/** Digest of every bit a reply carries (0 for a failed reply). */
std::uint64_t
replyDigest(bool ok, QueryDomain domain, const BusSolution &bus,
            const NetworkSolution &net)
{
    if (!ok) {
        return 0;
    }
    std::uint64_t hash = 0xcbf29ce484222325ull;
    mix(hash, static_cast<std::uint64_t>(domain));
    if (domain == QueryDomain::Bus) {
        mix(hash, bus.processors);
        for (const double v :
             {bus.cpu, bus.bus, bus.waiting, bus.busUtilization,
              bus.busQueueLength, bus.processorUtilization,
              bus.processingPower}) {
            mixDouble(hash, v);
        }
    } else {
        mix(hash, net.stages);
        mix(hash, net.processors);
        for (const double v :
             {net.cpu, net.network, net.transactionRate, net.waiting,
              net.processorUtilization, net.processingPower}) {
            mixDouble(hash, v);
        }
    }
    return hash == 0 ? 1 : hash;
}

std::uint64_t
replyDigest(const QueryResult &r)
{
    return replyDigest(r.ok, r.domain, r.bus, r.network);
}

/** Replies of one connection in one phase, in request order. */
struct Replies
{
    Phase phase = Phase::Closed;
    unsigned conn = 0;
    std::vector<std::uint64_t> digests;
};

/** The daemon on a socket inside the run directory. */
class LocalDaemon
{
  public:
    explicit LocalDaemon(const std::string &dir)
    {
        static std::atomic<unsigned> instances{0};
        std::filesystem::create_directories(dir);
        DaemonConfig config;
        config.socketPath = dir + "/swccd-" + std::to_string(::getpid()) +
            "-" + std::to_string(instances.fetch_add(1)) + ".sock";
        config.workers = kWorkers;
        config.batchMax = kBatchMax;
        daemon_ = std::make_unique<ServiceDaemon>(std::move(config));
        daemon_->start();
    }

    ~LocalDaemon() { daemon_->stop(); }

    LocalDaemon(const LocalDaemon &) = delete;
    LocalDaemon &operator=(const LocalDaemon &) = delete;

    const std::string &socket() const
    {
        return daemon_->config().socketPath;
    }
    ServiceDaemon &daemon() { return *daemon_; }

  private:
    std::unique_ptr<ServiceDaemon> daemon_;
};

std::uint64_t
nanosSince(Clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start)
            .count());
}

/** Closed loop: kWindow requests in flight on each connection. */
struct ClosedResult
{
    double qps = 0.0;
    std::vector<Replies> replies;
};

ClosedResult
runClosedLoop(const std::string &socket, const QueryStream &stream,
              double seconds, RunResult &result)
{
    constexpr double kBucketS = 0.2;
    const std::size_t buckets =
        static_cast<std::size_t>(std::ceil(seconds / kBucketS));
    std::vector<std::vector<std::uint64_t>> counts(
        kConnections, std::vector<std::uint64_t>(buckets, 0));
    ClosedResult closed;
    closed.replies.resize(kConnections);
    std::vector<std::string> errors(kConnections);
    std::atomic<bool> stop{false};
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kConnections; ++c) {
        clients.emplace_back([&, c] {
            Replies &replies = closed.replies[c];
            replies.phase = Phase::Closed;
            replies.conn = c;
            try {
                ServiceClient client;
                client.connect(socket);
                QueryCursor cursor(stream, Phase::Closed, c);
                std::vector<std::uint8_t> burst;
                std::size_t inflight = 0;
                const auto send = [&](std::size_t n) {
                    burst.clear();
                    for (std::size_t i = 0; i < n; ++i) {
                        appendQueryRequest(burst, cursor.next());
                    }
                    inflight += n;
                    client.sendRaw(burst.data(), burst.size());
                };
                const auto receive = [&] {
                    replies.digests.push_back(
                        replyDigest(client.recvResult()));
                    --inflight;
                    const std::size_t b = static_cast<std::size_t>(
                        secondsSince(start) / kBucketS);
                    if (b < buckets) {
                        ++counts[c][b];
                    }
                };
                send(kWindow);
                while (!stop.load(std::memory_order_relaxed)) {
                    receive();
                    while (inflight > 0 && client.pollReadable(0)) {
                        receive();
                    }
                    send(kWindow - inflight);
                }
                while (inflight > 0) {
                    receive();
                }
            } catch (const std::exception &error) {
                errors[c] = error.what();
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    for (std::thread &client : clients) {
        client.join();
    }
    for (const std::string &error : errors) {
        if (!error.empty()) {
            result.attempt();
            result.fail("closed-loop client: " + error);
        }
    }
    // Median of whole buckets: one stall does not set the figure.
    std::vector<double> rates;
    for (std::size_t b = 0; b + 1 < buckets; ++b) {
        double n = 0.0;
        for (unsigned c = 0; c < kConnections; ++c) {
            n += static_cast<double>(counts[c][b]);
        }
        rates.push_back(n / kBucketS);
    }
    closed.qps = median(rates);
    return closed;
}

/** Open loop at kOpenLoopRate, latency from each query's due time. */
struct OpenResult
{
    double p50Us = 0.0;
    double p99Us = 0.0;
    double lateP99Us = 0.0;
    std::vector<Replies> replies;
};

/**
 * A client connection whose sends never block, so a thread that sends
 * on schedule and reads replies in between cannot deadlock with the
 * daemon when a socket buffer fills.
 */
class OpenConnection
{
  public:
    explicit OpenConnection(const std::string &path)
    {
        sockaddr_un addr{};
        if (path.size() >= sizeof addr.sun_path) {
            throw std::runtime_error("socket path too long: " + path);
        }
        fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        if (fd_ < 0 ||
            ::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof addr) != 0) {
            throw std::runtime_error("cannot connect to " + path);
        }
    }

    ~OpenConnection()
    {
        if (fd_ >= 0) {
            ::close(fd_);
        }
    }

    OpenConnection(const OpenConnection &) = delete;
    OpenConnection &operator=(const OpenConnection &) = delete;

    int fd() const { return fd_; }

    /** Queues @p query and sends what the socket takes now. */
    void
    send(const Query &query)
    {
        appendQueryRequest(out_, query);
        flush();
    }

    /** True while queued request bytes wait for socket space. */
    bool pending() const { return sent_ < out_.size(); }

    /** Sends queued bytes without blocking. */
    void
    flush()
    {
        while (sent_ < out_.size()) {
            const ssize_t n =
                ::send(fd_, out_.data() + sent_, out_.size() - sent_,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                return;
            }
            if (n <= 0) {
                throw std::runtime_error("send to swccd failed");
            }
            sent_ += static_cast<std::size_t>(n);
        }
        out_.clear();
        sent_ = 0;
    }

    /** Reads whatever the socket holds, without blocking. */
    void
    fill()
    {
        std::uint8_t chunk[16 * 1024];
        for (;;) {
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
            if (n > 0) {
                in_.insert(in_.end(), chunk, chunk + n);
                continue;
            }
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                return;
            }
            throw std::runtime_error("swccd closed the connection");
        }
    }

    /** The next buffered reply's digest, if a whole frame is buffered. */
    bool
    next(std::uint64_t &digest)
    {
        ResponseFrame frame;
        std::size_t used = 0;
        std::string error;
        const DecodeStatus status = decodeResponse(
            in_.data() + offset_, in_.size() - offset_, used, frame, error);
        if (status == DecodeStatus::NeedMore) {
            // Drop the consumed prefix, keeping any partial frame.
            in_.erase(in_.begin(),
                      in_.begin() + static_cast<std::ptrdiff_t>(offset_));
            offset_ = 0;
            return false;
        }
        if (status == DecodeStatus::BadFrame) {
            throw std::runtime_error("bad reply frame: " + error);
        }
        offset_ += used;
        digest = replyDigest(frame.isQueryResult &&
                                 frame.status == ResponseStatus::Ok,
                             frame.domain, frame.bus, frame.network);
        return true;
    }

  private:
    int fd_ = -1;
    std::vector<std::uint8_t> out_;
    std::size_t sent_ = 0;
    std::vector<std::uint8_t> in_;
    std::size_t offset_ = 0;
};

/**
 * One thread drives both connections: query g of the merged schedule
 * is due at g / kOpenLoopRate and goes to connection g % kConnections.
 * Between due times the thread polls both sockets and takes in
 * whatever replies have arrived, so sends leave on time.
 */
OpenResult
runOpenLoop(const std::string &socket, const QueryStream &stream,
            double seconds, RunResult &result)
{
    const std::size_t windows = std::max<std::size_t>(
        1, static_cast<std::size_t>(seconds / kLatencyWindowS));
    // latency[w]: microseconds of the queries due in window w.
    std::vector<std::vector<double>> latency(windows);
    std::vector<double> late;
    OpenResult open;
    open.replies.resize(kConnections);

    const double interval_ns = 1e9 / kOpenLoopRate;
    const auto due_of = [&](std::size_t g) {
        return static_cast<std::uint64_t>(interval_ns *
                                          static_cast<double>(g));
    };
    const std::uint64_t horizon_ns =
        static_cast<std::uint64_t>(seconds * 1e9);
    const std::uint64_t deadline_ns =
        horizon_ns + static_cast<std::uint64_t>(kGraceS * 1e9);
    std::size_t total_due = 0;
    while (due_of(total_due) < horizon_ns) {
        ++total_due;
    }

    std::vector<std::unique_ptr<OpenConnection>> conns;
    std::vector<QueryCursor> cursors;
    std::vector<std::size_t> sent(kConnections, 0);
    try {
        std::vector<pollfd> fds;
        for (unsigned c = 0; c < kConnections; ++c) {
            conns.push_back(std::make_unique<OpenConnection>(socket));
            cursors.emplace_back(stream, Phase::Open, c);
            open.replies[c].phase = Phase::Open;
            open.replies[c].conn = c;
            fds.push_back({conns.back()->fd(), POLLIN, 0});
        }
        const Clock::time_point start = Clock::now();
        const auto take = [&](unsigned c) {
            Replies &replies = open.replies[c];
            std::uint64_t digest = 0;
            while (conns[c]->next(digest)) {
                const std::size_t k = replies.digests.size();
                replies.digests.push_back(digest);
                const std::uint64_t due = due_of(k * kConnections + c);
                const std::size_t w = std::min(
                    windows - 1, static_cast<std::size_t>(
                                     static_cast<double>(due) * 1e-9 /
                                     kLatencyWindowS));
                latency[w].push_back(
                    static_cast<double>(nanosSince(start) - due) * 1e-3);
            }
        };
        // Flushes queued requests and takes in every complete reply,
        // waiting at most @p timeout_ms for either; false when there
        // was nothing to do.
        const auto service = [&](int timeout_ms) {
            for (unsigned c = 0; c < kConnections; ++c) {
                fds[c].events = static_cast<short>(
                    POLLIN | (conns[c]->pending() ? POLLOUT : 0));
            }
            if (::poll(fds.data(), fds.size(), timeout_ms) <= 0) {
                return false;
            }
            for (unsigned c = 0; c < kConnections; ++c) {
                if (fds[c].revents & POLLOUT) {
                    conns[c]->flush();
                }
                if (fds[c].revents & ~POLLOUT) {
                    conns[c]->fill();
                    take(c);
                }
            }
            return true;
        };
        std::size_t g = 0;
        while (g < total_due) {
            const std::uint64_t due = due_of(g);
            const std::uint64_t now = nanosSince(start);
            if (now < due) {
                if (!service(0)) {
                    std::this_thread::yield();
                }
                continue;
            }
            if (now >= deadline_ns) {
                break;
            }
            const unsigned c = static_cast<unsigned>(g % kConnections);
            late.push_back(static_cast<double>(now - due) * 1e-3);
            conns[c]->send(cursors[c].next());
            ++sent[c];
            ++g;
            if (g % 16 == 0) {
                // Behind schedule the loop sends back to back; take in
                // replies on the way.
                service(0);
            }
        }
        const auto outstanding = [&] {
            for (unsigned c = 0; c < kConnections; ++c) {
                if (open.replies[c].digests.size() < sent[c]) {
                    return true;
                }
            }
            return false;
        };
        while (outstanding() && nanosSince(start) < deadline_ns) {
            service(1);
        }
    } catch (const std::exception &error) {
        result.attempt();
        result.fail(std::string("open-loop client: ") + error.what());
    }
    // A query due but never sent, or sent but never answered by the
    // deadline, is a failed query.
    std::size_t answered = 0, sent_total = 0;
    for (unsigned c = 0; c < kConnections; ++c) {
        answered += open.replies[c].digests.size();
        sent_total += sent[c];
    }
    result.attempt(total_due - answered);
    for (std::size_t i = sent_total; i < total_due; ++i) {
        result.fail("open-loop query due but unsent at the deadline");
    }
    for (std::size_t i = answered; i < sent_total; ++i) {
        result.fail("open-loop query unanswered at the deadline");
    }
    std::vector<double> p50, p99;
    for (const std::vector<double> &window : latency) {
        if (!window.empty()) {
            p50.push_back(quantile(window, 0.50));
            p99.push_back(quantile(window, 0.99));
        }
    }
    open.p50Us = median(p50);
    open.p99Us = median(p99);
    open.lateP99Us = quantile(late, 0.99);
    return open;
}

/**
 * Compares every recorded reply with a direct, memo-free evaluation of
 * the same query. Hot points are evaluated once.
 */
void
checkReplies(const QueryStream &stream,
             const std::vector<Replies> &all, RunResult &result)
{
    const ServiceKernel kernel;
    const bool memo = solverCacheEnabled();
    setSolverCacheEnabled(false);
    std::vector<std::uint64_t> hot_digest;
    for (const Query &q : stream.hot()) {
        hot_digest.push_back(replyDigest(kernel.evaluate(q)));
    }
    struct Job
    {
        const Replies *replies;
        std::size_t block;
    };
    std::vector<Job> jobs;
    for (const Replies &r : all) {
        for (std::size_t b = 0; b * kBlock < r.digests.size(); ++b) {
            jobs.push_back({&r, b});
        }
    }
    std::vector<std::vector<std::string>> failures(jobs.size());
    std::vector<std::uint64_t> checked(jobs.size(), 0);
    parallelFor(jobs.size(), [&](std::size_t j) {
        const Replies &r = *jobs[j].replies;
        std::vector<int> hot_index;
        const std::vector<Query> queries =
            stream.block(r.phase, r.conn, jobs[j].block, &hot_index);
        for (std::size_t i = 0; i < kBlock; ++i) {
            const std::size_t k = jobs[j].block * kBlock + i;
            if (k >= r.digests.size()) {
                break;
            }
            ++checked[j];
            const std::uint64_t want = hot_index[i] >= 0
                ? hot_digest[static_cast<std::size_t>(hot_index[i])]
                : replyDigest(kernel.evaluate(queries[i]));
            const std::uint64_t got = r.digests[k];
            if (got == 0 || want == 0) {
                failures[j].push_back("query " + std::to_string(k) +
                                      " answered with an error");
            } else if (got != want) {
                failures[j].push_back("query " + std::to_string(k) +
                                      " reply differs from direct "
                                      "evaluation");
            }
        }
    });
    setSolverCacheEnabled(memo);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        result.attempt(checked[j]);
        for (const std::string &f : failures[j]) {
            result.fail("connection " + std::to_string(jobs[j].replies->conn) +
                        ": " + f);
        }
    }
}

/** Quantile @p q of a Prometheus histogram named *@p family. */
double
scrapeQuantile(const std::string &text, const std::string &family,
               double q)
{
    std::vector<std::pair<double, double>> buckets; // (le, cumulative)
    std::istringstream lines(text);
    std::string line;
    const std::string marker = family + "_bucket{le=\"";
    while (std::getline(lines, line)) {
        const std::size_t at = line.find(marker);
        if (at == std::string::npos) {
            continue;
        }
        const std::size_t open = at + marker.size();
        const std::size_t close = line.find('"', open);
        const std::string le = line.substr(open, close - open);
        const double bound = le == "+Inf"
            ? std::numeric_limits<double>::infinity()
            : std::stod(le);
        buckets.push_back({bound, std::stod(line.substr(close + 3))});
    }
    if (buckets.empty() || buckets.back().second <= 0.0) {
        return 0.0;
    }
    const double target = q * buckets.back().second;
    for (const auto &[bound, cumulative] : buckets) {
        if (cumulative >= target) {
            return bound;
        }
    }
    return buckets.back().first;
}

/** The wire and kernel layers replayed from here, one batch a span. */
struct ReplayTimes
{
    double wall = 0.0;
    std::size_t queries = 0;
    std::size_t busQueries = 0;
    std::size_t networkQueries = 0;
};

ReplayTimes
replayLayers(const QueryStream &stream, const Replies &closed,
             SpanRecorder &spans, RunResult &result)
{
    const ServiceKernel kernel;
    ReplayTimes times;
    const std::size_t blocks = std::min<std::size_t>(
        16, closed.digests.size() / kBlock);
    const Clock::time_point start = Clock::now();
    for (std::size_t b = 0; b < blocks; ++b) {
        const std::vector<Query> queries =
            stream.block(Phase::Closed, closed.conn, b);
        for (std::size_t off = 0; off < kBlock; off += kBatchMax) {
            const std::uint64_t group = spans.newGroup();
            const SpanRecorder::Scope batch(spans, "batch", group);
            const Query *first = queries.data() + off;
            std::vector<std::uint8_t> wire;
            {
                const SpanRecorder::Scope s(spans, "svc.encode", group);
                for (std::size_t i = 0; i < kBatchMax; ++i) {
                    appendQueryRequest(wire, first[i]);
                }
            }
            std::vector<RequestFrame> frames(kBatchMax);
            {
                const SpanRecorder::Scope s(spans, "svc.decode_request",
                                            group);
                std::size_t pos = 0;
                std::string error;
                for (RequestFrame &frame : frames) {
                    std::size_t used = 0;
                    if (decodeRequest(wire.data() + pos, wire.size() - pos,
                                      used, frame, error) !=
                        DecodeStatus::Frame) {
                        result.attempt();
                        result.fail("replayed request does not decode: " +
                                    error);
                        return times;
                    }
                    pos += used;
                }
            }
            std::vector<Query> decoded;
            for (const RequestFrame &frame : frames) {
                decoded.push_back(frame.query);
            }
            std::vector<QueryResult> results(kBatchMax);
            {
                const SpanRecorder::Scope s(spans, "svc.kernel_batch",
                                            group);
                kernel.evaluateBatch(decoded.data(), kBatchMax,
                                     results.data());
            }
            std::vector<std::uint8_t> response;
            {
                const SpanRecorder::Scope s(spans, "svc.encode_response",
                                            group);
                for (const QueryResult &r : results) {
                    appendQueryResponse(response, r, false);
                }
            }
            {
                const SpanRecorder::Scope s(spans, "svc.decode_response",
                                            group);
                std::size_t pos = 0;
                std::string error;
                for (std::size_t i = 0; i < kBatchMax; ++i) {
                    ResponseFrame frame;
                    std::size_t used = 0;
                    const bool ok =
                        decodeResponse(response.data() + pos,
                                       response.size() - pos, used, frame,
                                       error) == DecodeStatus::Frame;
                    pos += used;
                    // The replay must reproduce the daemon's reply.
                    result.attempt();
                    const std::uint64_t got = ok
                        ? replyDigest(frame.isQueryResult &&
                                          frame.status ==
                                              ResponseStatus::Ok,
                                      frame.domain, frame.bus,
                                      frame.network)
                        : 0;
                    if (got == 0 ||
                        got != closed.digests[b * kBlock + off + i]) {
                        result.fail("replayed reply " +
                                    std::to_string(b * kBlock + off + i) +
                                    " differs from the daemon's");
                    }
                }
            }
            for (const Query &q : decoded) {
                if (q.domain == QueryDomain::Bus) {
                    const SpanRecorder::Scope s(spans, "core.eval_bus",
                                                group);
                    (void)evaluateBus(q.scheme, q.params, q.size);
                    ++times.busQueries;
                } else {
                    const SpanRecorder::Scope s(spans, "core.patel_solve",
                                                group);
                    (void)evaluateNetwork(q.scheme, q.params, q.size);
                    ++times.networkQueries;
                }
            }
            times.queries += kBatchMax;
        }
    }
    times.wall = secondsSince(start);
    return times;
}

struct Phases
{
    ClosedResult closed;
    OpenResult open;
    DaemonStats stats;
    std::string scrape;
};

Phases
runPhases(LocalDaemon &daemon, const QueryStream &stream,
          const Options &options, RunResult &result)
{
    Phases phases;
    phases.closed = runClosedLoop(daemon.socket(), stream,
                                  kClosedShare * options.seconds, result);
    phases.open = runOpenLoop(daemon.socket(), stream,
                              kOpenShare * options.seconds, result);
    phases.stats = daemon.daemon().stats();
    ServiceClient client;
    client.connect(daemon.socket());
    phases.scrape = client.scrape();
    return phases;
}

} // namespace

void
runSwccdMix(const Options &options, RunResult &result)
{
    result.note("reference", "direct memo-free ServiceKernel::evaluate");
    std::unique_ptr<QueryStream> stream;
    std::unique_ptr<LocalDaemon> daemon;
    EndToEnd e2e;
    e2e.setupS = medianSetupSeconds(3, [&] {
        daemon.reset();
        clearSolverCache();
        stream = std::make_unique<QueryStream>(options.seed);
        // The first block of every stream, as a client would build it.
        for (const Phase phase : {Phase::Closed, Phase::Open}) {
            for (unsigned c = 0; c < kConnections; ++c) {
                (void)stream->block(phase, c, 0);
            }
        }
        daemon = std::make_unique<LocalDaemon>(options.outDir);
        if (!ServiceClient::waitForServer(daemon->socket(), 5000)) {
            throw std::runtime_error("daemon did not start");
        }
    });

    // Untraced runs first take the simulation samples, on a heap the
    // service phases have not yet churned through.
    SampleStats sim, net;
    if (!options.trace) {
        const double sample_s =
            0.5 * (1.0 - kClosedShare - kOpenShare) * options.seconds;
        sim = runValidationSample(options, sample_s, result);
        net = runNetworkSample(options, sample_s, result);
    }

    const CounterSnapshot before = CounterSnapshot::now();
    Phases phases = runPhases(*daemon, *stream, options, result);
    PerLayer layers;
    setCounterDeltas(before, layers);
    daemon.reset();

    std::vector<Replies> all = phases.closed.replies;
    all.insert(all.end(), phases.open.replies.begin(),
               phases.open.replies.end());
    checkReplies(*stream, all, result);

    if (!options.trace) {
        e2e.svcQps = phases.closed.qps;
        e2e.svcP50Us = phases.open.p50Us;
        e2e.simEventsPerS = sim.rate;
        e2e.netPortCyclesPerS = net.rate;
        e2e.modelErrPct = (sim.absErrorSum + net.absErrorSum) /
            static_cast<double>(sim.points + net.points);
        addEndToEnd(e2e, result);
        return;
    }

    layers.set("svc.queue_wait_us.p50",
               scrapeQuantile(phases.scrape, "queue_wait_us", 0.50));
    layers.set("svc.queue_wait_us.p99",
               scrapeQuantile(phases.scrape, "queue_wait_us", 0.99));
    layers.set("svc.batch_mean",
               phases.stats.batches > 0
                   ? static_cast<double>(phases.stats.queries) /
                       static_cast<double>(phases.stats.batches)
                   : 0.0);
    layers.set("loadgen.late_us.p99", phases.open.lateP99Us);
    layers.set("svc_p99_us", phases.open.p99Us);

    // The replay is short, so it runs warm and alternates spans off
    // and on; the overhead compares the median walls. Only the last
    // traced replay's spans are kept.
    SpanRecorder spans;
    const Replies &closed0 = phases.closed.replies.front();
    (void)replayLayers(*stream, closed0, spans, result);
    std::vector<double> wall_off, wall_on;
    ReplayTimes on;
    for (int round = 0; round < 3; ++round) {
        wall_off.push_back(
            replayLayers(*stream, closed0, spans, result).wall);
        spans.clear();
        spans.setEnabled(true);
        on = replayLayers(*stream, closed0, spans, result);
        spans.setEnabled(false);
        wall_on.push_back(on.wall);
    }
    const double n = static_cast<double>(on.queries);
    if (on.queries > 0) {
        layers.set("svc.encode_ns",
                   spans.totalSeconds("svc.encode") / n * 1e9);
        layers.set("svc.decode_ns",
                   (spans.totalSeconds("svc.decode_request") +
                    spans.totalSeconds("svc.decode_response")) /
                       n * 1e9);
        layers.set("svc.kernel_batch_us",
                   spans.totalSeconds("svc.kernel_batch") / n * 1e6);
        layers.set("core.eval_bus_us",
                   spans.totalSeconds("core.eval_bus") /
                       static_cast<double>(on.busQueries) * 1e6);
        layers.set("core.patel_solve_us",
                   spans.totalSeconds("core.patel_solve") /
                       static_cast<double>(on.networkQueries) * 1e6);
        layers.set("trace.overhead_pct",
                   100.0 * (median(wall_on) - median(wall_off)) /
                       median(wall_off));
    }
    finishTraced(spans, options, layers, result);
}

bool
selfTestChecks(const Options &options)
{
    bool ok = true;

    // 1. A corrupted reference digest must surface as one failure.
    {
        ReferenceSet refs;
        refs.load(referencePath(options, "validate-sw"), options.seed);
        if (refs.empty()) {
            std::cerr << "self-test: no validate-sw reference for seed "
                      << options.seed << '\n';
            return false;
        }
        const std::string victim = "base/pero-like/64k/c3";
        const ReferenceEntry *entry = refs.find(victim);
        if (entry == nullptr) {
            std::cerr << "self-test: reference lacks " << victim << '\n';
            return false;
        }
        refs.set(victim, {entry->digest ^ 1, entry->errorPercent});
        ValidationConfig config;
        config.profile = AppProfile::PeroLike;
        config.scheme = Scheme::Base;
        config.cacheBytes = 64 * 1024;
        config.maxCpus = 4;
        config.instructionsPerCpu = 40'000;
        config.seed = options.seed;
        RunResult result;
        for (const ValidationPoint &p : validate(config)) {
            checkAgainstReference(
                refs, "base/pero-like/64k/c" + std::to_string(p.cpus),
                fnv1a(p.sim.serialize()), p.errorPercent(), result);
        }
        std::cout << "self-test: corrupted reference digest -> "
                  << result.failed() << " of " << result.attempted()
                  << " outputs failed" << std::endl;
        ok = ok && result.failed() == 1 && result.attempted() == 4;
    }

    // 2. A corrupted daemon reply must surface as one failure.
    {
        const QueryStream stream(options.seed);
        LocalDaemon daemon(options.outDir);
        Replies replies{Phase::SelfTest, 0, {}};
        {
            ServiceClient client;
            client.connect(daemon.socket());
            QueryCursor cursor(stream, Phase::SelfTest, 0);
            for (std::size_t i = 0; i < 2 * kBlock; ++i) {
                replies.digests.push_back(
                    replyDigest(client.query(cursor.next())));
            }
        }
        replies.digests[777] ^= 1;
        RunResult result;
        checkReplies(stream, {replies}, result);
        std::cout << "self-test: corrupted daemon reply -> "
                  << result.failed() << " of " << result.attempted()
                  << " replies failed" << std::endl;
        ok = ok && result.failed() == 1 &&
            result.attempted() == 2 * kBlock;
    }
    return ok;
}

} // namespace perfbench
