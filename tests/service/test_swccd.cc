/**
 * @file
 * End-to-end tests for the swccd daemon: lifecycle, the stats
 * endpoint, graceful drain of in-flight requests, protocol
 * robustness against hostile clients (oversized length prefixes,
 * truncated frames, mid-request disconnects, garbage bytes), and the
 * concurrent-client gate — N client threads hammering one daemon must
 * each get answers bitwise identical to a direct ServiceKernel
 * evaluation (the suite name starts with "ServiceParallel" so the
 * tsan preset exercises the full acceptor/worker/connection weave).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/obs/obs.hh"
#include "core/solver_cache.hh"
#include "core/types.hh"
#include "core/workload.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/service_kernel.hh"

namespace swcc::service
{
namespace
{

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
expectIdentical(const QueryResult &got, const QueryResult &want)
{
    ASSERT_EQ(got.ok, want.ok) << got.error;
    if (!got.ok) {
        EXPECT_EQ(got.error, want.error);
        return;
    }
    ASSERT_EQ(got.domain, want.domain);
    if (got.domain == QueryDomain::Bus) {
        EXPECT_EQ(got.bus.processors, want.bus.processors);
        EXPECT_TRUE(sameBits(got.bus.cpu, want.bus.cpu));
        EXPECT_TRUE(sameBits(got.bus.bus, want.bus.bus));
        EXPECT_TRUE(sameBits(got.bus.waiting, want.bus.waiting));
        EXPECT_TRUE(sameBits(got.bus.busUtilization,
                             want.bus.busUtilization));
        EXPECT_TRUE(sameBits(got.bus.busQueueLength,
                             want.bus.busQueueLength));
        EXPECT_TRUE(sameBits(got.bus.processorUtilization,
                             want.bus.processorUtilization));
        EXPECT_TRUE(sameBits(got.bus.processingPower,
                             want.bus.processingPower));
    } else {
        EXPECT_EQ(got.network.stages, want.network.stages);
        EXPECT_EQ(got.network.processors, want.network.processors);
        EXPECT_TRUE(sameBits(got.network.cpu, want.network.cpu));
        EXPECT_TRUE(
            sameBits(got.network.network, want.network.network));
        EXPECT_TRUE(sameBits(got.network.acceptance,
                             want.network.acceptance));
        EXPECT_TRUE(sameBits(got.network.cyclesPerInstruction,
                             want.network.cyclesPerInstruction));
        EXPECT_TRUE(sameBits(got.network.processingPower,
                             want.network.processingPower));
    }
}

Query
busQuery(Scheme scheme, unsigned cpus,
         const WorkloadParams &params = middleParams())
{
    Query query;
    query.domain = QueryDomain::Bus;
    query.scheme = scheme;
    query.size = cpus;
    query.params = params;
    return query;
}

Query
networkQuery(Scheme scheme, unsigned stages)
{
    Query query;
    query.domain = QueryDomain::Network;
    query.scheme = scheme;
    query.size = stages;
    query.params = middleParams();
    return query;
}

/** One daemon on a unique socket path, torn down with the test. */
class DaemonFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setSolverCacheEnabled(true);
        clearSolverCache();
        static std::atomic<unsigned> counter{0};
        socket_ = "/tmp/swccd-test-" + std::to_string(::getpid()) +
            "-" + std::to_string(counter.fetch_add(1)) + ".sock";
    }

    void
    TearDown() override
    {
        daemon_.reset();
        clearSolverCache();
    }

    void
    startDaemon(unsigned workers = 2, unsigned batchMax = 16)
    {
        DaemonConfig config;
        config.socketPath = socket_;
        config.workers = workers;
        config.batchMax = batchMax;
        daemon_ = std::make_unique<ServiceDaemon>(config);
        daemon_->start();
        ASSERT_TRUE(ServiceClient::waitForServer(socket_, 5000));
    }

    std::string socket_;
    std::unique_ptr<ServiceDaemon> daemon_;
};

using ServiceDaemonTest = DaemonFixture;

TEST_F(ServiceDaemonTest, StartsServesAndStopsCleanly)
{
    startDaemon();
    EXPECT_TRUE(daemon_->running());
    {
        ServiceClient client;
        client.connect(socket_);
        EXPECT_EQ(client.ping(), "pong");
    }
    daemon_->stop();
    EXPECT_FALSE(daemon_->running());
    // The socket file is unlinked on shutdown.
    EXPECT_NE(::access(socket_.c_str(), F_OK), 0);
}

TEST_F(ServiceDaemonTest, AnswersQueriesBitwiseIdenticalToTheKernel)
{
    startDaemon();
    const ServiceKernel kernel;
    ServiceClient client;
    client.connect(socket_);
    for (Scheme scheme : kAllSchemes) {
        const Query query = busQuery(scheme, 24);
        expectIdentical(client.query(query), kernel.evaluate(query));
    }
    const Query query = networkQuery(Scheme::SoftwareFlush, 6);
    expectIdentical(client.query(query), kernel.evaluate(query));
}

TEST_F(ServiceDaemonTest, JsonDialectIsBitwiseIdenticalToo)
{
    startDaemon();
    const ServiceKernel kernel;
    ServiceClient client;
    client.connect(socket_);
    client.useJson(true);
    EXPECT_EQ(client.ping(), "{\"ok\":true,\"pong\":true}");
    const Query query = busQuery(Scheme::Dragon, 17);
    expectIdentical(client.query(query), kernel.evaluate(query));
}

TEST_F(ServiceDaemonTest, StatsEndpointReportsCountersAndSolverCache)
{
    startDaemon();
    ServiceClient client;
    client.connect(socket_);
    (void)client.query(busQuery(Scheme::Base, 4));
    (void)client.query(busQuery(Scheme::Base, 4)); // memo hit

    const std::string stats = client.stats();
    EXPECT_NE(stats.find("\"ok\":true"), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"queries\":"), std::string::npos);
    EXPECT_NE(stats.find("\"batches\":"), std::string::npos);
    EXPECT_NE(stats.find("\"connections_accepted\":"),
              std::string::npos);
    EXPECT_NE(stats.find("\"solver_cache\""), std::string::npos);
    EXPECT_NE(stats.find("\"hits\":"), std::string::npos);
    EXPECT_NE(stats.find("\"misses\":"), std::string::npos);
    EXPECT_NE(stats.find("\"evictions\":"), std::string::npos);

    const DaemonStats totals = daemon_->stats();
    EXPECT_EQ(totals.queries, 2u);
    // waitForServer() probes with a bare connect, which the acceptor
    // may or may not have picked up before it closed again.
    EXPECT_GE(totals.connectionsAccepted, 1u);
    EXPECT_EQ(totals.protocolErrors, 0u);
}

TEST_F(ServiceDaemonTest, ValidationErrorsKeepTheConnectionAlive)
{
    startDaemon();
    ServiceClient client;
    client.connect(socket_);

    const QueryResult bad = client.query(busQuery(Scheme::Base, 0));
    EXPECT_FALSE(bad.ok);
    EXPECT_FALSE(bad.error.empty());

    const QueryResult oversized =
        client.query(busQuery(Scheme::Base, 100000));
    EXPECT_FALSE(oversized.ok);
    EXPECT_NE(oversized.error.find("exceeds limit"),
              std::string::npos);

    // Same connection still answers good queries afterwards.
    EXPECT_TRUE(client.query(busQuery(Scheme::Base, 4)).ok);
    EXPECT_GE(daemon_->stats().validationErrors, 2u);
}

TEST_F(ServiceDaemonTest, DrainAnswersEveryInFlightRequest)
{
    startDaemon(2, 8);
    ServiceClient client;
    client.connect(socket_);
    // connect() only queues us in the listen backlog; the drain
    // contract covers *accepted* requests, so prove the connection
    // thread is live before racing the pipeline against the stop.
    ASSERT_EQ(client.ping(), "pong");
    constexpr unsigned kInFlight = 64;
    for (unsigned i = 0; i < kInFlight; ++i) {
        client.sendQuery(busQuery(Scheme::Dragon, 1 + i % 96));
    }
    // Stop with the pipeline full: every accepted request must still
    // be answered, in order, before the daemon tears down.
    daemon_->requestStop();
    const ServiceKernel kernel;
    for (unsigned i = 0; i < kInFlight; ++i) {
        const QueryResult got = client.recvResult();
        expectIdentical(got,
                        kernel.evaluate(
                            busQuery(Scheme::Dragon, 1 + i % 96)));
    }
    daemon_->stop();
}

TEST_F(ServiceDaemonTest, OversizedLengthPrefixGetsErrorThenClose)
{
    startDaemon();
    ServiceClient attacker;
    attacker.connect(socket_);
    // Claims a 512 MiB payload; the daemon must answer with a framing
    // error and close, never waiting for the claimed bytes.
    const std::uint8_t evil[8] = {kRequestMagic, kProtocolVersion,
                                  0,             0,
                                  0x00,          0x00,
                                  0x00,          0x20};
    attacker.sendRaw(evil, sizeof evil);
    const ResponseFrame frame = attacker.recvResponse();
    EXPECT_EQ(frame.status, ResponseStatus::BadRequest);
    EXPECT_NE(frame.text.find("length prefix"), std::string::npos);
    // The daemon closed the connection after the error.
    EXPECT_THROW((void)attacker.recvResponse(), std::runtime_error);

    // And it keeps serving everyone else.
    ServiceClient client;
    client.connect(socket_);
    EXPECT_TRUE(client.query(busQuery(Scheme::Base, 4)).ok);
    EXPECT_GE(daemon_->stats().protocolErrors, 1u);
}

TEST_F(ServiceDaemonTest, GarbageBytesGetErrorThenClose)
{
    startDaemon();
    ServiceClient attacker;
    attacker.connect(socket_);
    const char garbage[] = "GET / HTTP/1.1\r\nHost: swccd\r\n\r\n";
    attacker.sendRaw(garbage, sizeof garbage - 1);
    const ResponseFrame frame = attacker.recvResponse();
    EXPECT_EQ(frame.status, ResponseStatus::BadRequest);
    EXPECT_THROW((void)attacker.recvResponse(), std::runtime_error);

    ServiceClient client;
    client.connect(socket_);
    EXPECT_TRUE(client.query(busQuery(Scheme::Base, 4)).ok);
}

TEST_F(ServiceDaemonTest, MidFrameDisconnectDoesNotWedgeTheDaemon)
{
    startDaemon();
    {
        // Send half a query frame, then vanish.
        ServiceClient half;
        half.connect(socket_);
        std::vector<std::uint8_t> bytes;
        appendQueryRequest(bytes, busQuery(Scheme::Base, 4));
        half.sendRaw(bytes.data(), bytes.size() / 2);
    }
    {
        // Send a valid pipelined burst and vanish without reading the
        // responses; the daemon must absorb the EPIPE quietly.
        ServiceClient rude;
        rude.connect(socket_);
        for (int i = 0; i < 8; ++i) {
            rude.sendQuery(busQuery(Scheme::Dragon, 32));
        }
    }
    ServiceClient client;
    client.connect(socket_);
    EXPECT_TRUE(client.query(busQuery(Scheme::Base, 4)).ok);
    daemon_->stop();
}

TEST_F(ServiceDaemonTest, RecoverableFieldErrorsKeepTheConnection)
{
    startDaemon();
    ServiceClient client;
    client.connect(socket_);
    // An intact frame with an unknown scheme byte: answered with an
    // error, connection stays.
    std::vector<std::uint8_t> bytes;
    appendQueryRequest(bytes, busQuery(Scheme::Base, 4));
    bytes[8 + 1] = 200; // scheme byte inside the payload
    client.sendRaw(bytes.data(), bytes.size());
    const ResponseFrame frame = client.recvResponse();
    EXPECT_EQ(frame.status, ResponseStatus::BadRequest);
    EXPECT_EQ(frame.text, "unknown scheme");
    EXPECT_TRUE(client.query(busQuery(Scheme::Base, 4)).ok);
}

/** The value of the sample line `<name> <value>` in exposition text. */
double
promValue(const std::string &text, const std::string &name)
{
    const std::string padded = "\n" + text;
    const std::string needle = "\n" + name + " ";
    const std::size_t at = padded.find(needle);
    if (at == std::string::npos) {
        ADD_FAILURE() << "sample '" << name << "' not in scrape:\n"
                      << text;
        return -1.0;
    }
    return std::stod(padded.substr(at + needle.size()));
}

/**
 * Workers record telemetry *after* flushing completions (off the
 * latency path), so a scrape racing the response can read stale
 * counts. Polls until @p name reaches @p target (or ~2s pass) and
 * returns the last scrape; the caller's assertions then report any
 * real discrepancy.
 */
std::string
scrapeUntilAtLeast(ServiceClient &client, const std::string &name,
                   double target)
{
    std::string scrape;
    for (int i = 0; i < 400; ++i) {
        scrape = client.scrape();
        const std::string padded = "\n" + scrape;
        const std::string needle = "\n" + name + " ";
        const std::size_t at = padded.find(needle);
        if (at != std::string::npos &&
            std::stod(padded.substr(at + needle.size())) >= target) {
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return scrape;
}

#if SWCC_OBS_ENABLED
/** Registry snapshot entry by name; fails the test if absent. */
obs::MetricSnapshot
findMetric(const std::string &name)
{
    for (const obs::MetricSnapshot &snap : obs::metrics().snapshot()) {
        if (snap.name == name) {
            return snap;
        }
    }
    ADD_FAILURE() << "metric '" << name << "' not in snapshot";
    return {};
}
#endif

TEST_F(ServiceDaemonTest, ScrapeEndpointServesPrometheusText)
{
    startDaemon();
    ServiceClient client;
    client.connect(socket_);
    for (unsigned i = 0; i < 8; ++i) {
        client.sendQuery(busQuery(Scheme::Base, 4 + i));
    }
    for (unsigned i = 0; i < 8; ++i) {
        ASSERT_TRUE(client.recvResult().ok);
    }

    const std::string scrape =
        scrapeUntilAtLeast(client, "service_request_us_count", 8.0);
    EXPECT_NE(scrape.find("# TYPE service_queries_total counter\n"),
              std::string::npos)
        << scrape;
    EXPECT_NE(scrape.find("# TYPE service_inflight gauge\n"),
              std::string::npos);
    EXPECT_NE(scrape.find("# TYPE service_request_us histogram\n"),
              std::string::npos);
    EXPECT_GE(promValue(scrape, "service_queries_total"), 8.0);
    EXPECT_GE(promValue(scrape, "solver_cache_hits_total"), 0.0);
    EXPECT_GE(promValue(scrape, "solver_cache_misses_total"), 1.0);
    EXPECT_GE(promValue(scrape, "service_request_us_count"), 8.0);
    EXPECT_GE(promValue(scrape, "service_batch_size_count"), 1.0);
    EXPECT_GE(promValue(scrape, "service_connections_active"), 1.0);
    EXPECT_EQ(promValue(scrape, "service_queue_depth"), 0.0);

    // The JSON dialect unwraps to the same exposition text.
    ServiceClient jsonClient;
    jsonClient.connect(socket_);
    jsonClient.useJson(true);
    const std::string viaJson = jsonClient.scrape();
    EXPECT_NE(viaJson.find("# TYPE service_inflight gauge\n"),
              std::string::npos)
        << viaJson;
    EXPECT_GE(promValue(viaJson, "service_queries_total"), 8.0);
}

TEST_F(ServiceDaemonTest, QueueWaitIsVisibleOnlyThroughTheDaemon)
{
    startDaemon(2, 16);
#if SWCC_OBS_ENABLED
    obs::metrics().resetForTest();
#endif
    // Direct kernel evaluation never queues: whatever happens here
    // must leave the service.queue_wait_us registry histogram empty.
    const ServiceKernel kernel;
    for (unsigned i = 0; i < 8; ++i) {
        (void)kernel.evaluate(busQuery(Scheme::Base, 4 + i));
    }
#if SWCC_OBS_ENABLED
    EXPECT_EQ(findMetric("service.queue_wait_us").count, 0u);
#endif

    // A pipelined burst through the daemon rides the MPMC queue, so
    // every query accrues a measurable (nonzero-count) queue wait.
    ServiceClient client;
    client.connect(socket_);
    for (unsigned i = 0; i < 32; ++i) {
        client.sendQuery(busQuery(Scheme::Dragon, 1 + i % 64));
    }
    for (unsigned i = 0; i < 32; ++i) {
        ASSERT_TRUE(client.recvResult().ok);
    }
    const std::string scrape = scrapeUntilAtLeast(
        client, "service_queue_wait_us_count", 32.0);
    EXPECT_GE(promValue(scrape, "service_queue_wait_us_count"), 32.0);
#if SWCC_OBS_ENABLED
    // The registry observe trails the telemetry mutex; poll it too.
    for (int i = 0;
         i < 400 && findMetric("service.queue_wait_us").count < 32;
         ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GE(findMetric("service.queue_wait_us").count, 32u);
#endif
}

TEST_F(ServiceDaemonTest, TracedRunEmitsConnectedFlowAcrossThreads)
{
    if (!obs::compiledIn()) {
        GTEST_SKIP() << "tracing compiles out under SWCC_OBS=OFF";
    }
    obs::TraceRecorder &trc = obs::tracer();
    trc.clearForTest();
    trc.setEnabled(true);
    startDaemon(2, 8);
    {
        ServiceClient client;
        client.connect(socket_);
        for (unsigned i = 0; i < 16; ++i) {
            client.sendQuery(busQuery(Scheme::Base, 1 + i % 32));
        }
        for (unsigned i = 0; i < 16; ++i) {
            ASSERT_TRUE(client.recvResult().ok);
        }
    }
    daemon_->stop();
    trc.setEnabled(false);
    std::ostringstream os;
    trc.writeChromeTrace(os);

    std::string error;
    const obs::JsonValue doc = obs::parseJson(os.str());
    ASSERT_TRUE(obs::validateChromeTrace(doc, &error)) << error;

    // Collect flow events by trace id: a connected chain has a start
    // ('s') and an end ('f'), and its events span >= 2 threads (the
    // connection thread and a batching worker).
    struct Flow
    {
        bool start = false, end = false;
        std::vector<double> tids;
    };
    std::map<double, Flow> flows;
    std::set<std::string> spanNames;
    for (const obs::JsonValue &event :
         doc.find("traceEvents")->array) {
        const std::string &ph = event.find("ph")->string;
        if (ph == "X") {
            spanNames.insert(event.find("name")->string);
        }
        if (ph != "s" && ph != "t" && ph != "f") {
            continue;
        }
        Flow &flow = flows[event.find("id")->number];
        flow.start |= ph == "s";
        flow.end |= ph == "f";
        flow.tids.push_back(event.find("tid")->number);
    }
    for (const char *name :
         {"svc.decode", "svc.batch", "svc.solve", "svc.send"}) {
        EXPECT_TRUE(spanNames.count(name)) << name;
    }
    std::size_t connected = 0;
    for (const auto &[id, flow] : flows) {
        std::set<double> distinct(flow.tids.begin(),
                                  flow.tids.end());
        if (flow.start && flow.end && distinct.size() >= 2) {
            ++connected;
        }
    }
    EXPECT_GE(connected, 1u) << "no flow chain crossed threads";
}

using ServiceParallelTest = DaemonFixture;

TEST_F(ServiceParallelTest, ConcurrentClientsGetBitwiseIdenticalResults)
{
    // The concurrency gate: N client threads × M pipelined queries
    // against one daemon, interleaving bus and network work across
    // schemes and sizes so the workers continually re-batch different
    // mixes. Every answer must be bitwise identical to a direct
    // ServiceKernel evaluation of the same query.
    startDaemon(4, 16);
    const ServiceKernel kernel;
    constexpr unsigned kThreads = 6;
    constexpr unsigned kQueriesPerThread = 120;

    std::vector<Query> plan;
    plan.reserve(kThreads * kQueriesPerThread);
    for (unsigned t = 0; t < kThreads; ++t) {
        for (unsigned i = 0; i < kQueriesPerThread; ++i) {
            const unsigned pick = t * 31 + i * 7;
            if (pick % 5 == 0) {
                plan.push_back(networkQuery(
                    pick % 2 == 0 ? Scheme::SoftwareFlush
                                  : Scheme::NoCache,
                    1 + pick % 12));
            } else {
                plan.push_back(busQuery(
                    kAllSchemes[pick % kNumSchemes], 1 + pick % 128,
                    paramsAtLevel(
                        kAllLevels[pick % kAllLevels.size()])));
            }
        }
    }
    std::vector<QueryResult> expected(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        expected[i] = kernel.evaluate(plan[i]);
    }

    std::atomic<unsigned> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ServiceClient client;
            client.connect(socket_);
            client.useJson(t % 3 == 2); // every third thread: JSON
            const std::size_t base = t * kQueriesPerThread;
            // Pipeline in bursts of 8 to keep batches forming.
            for (unsigned i = 0; i < kQueriesPerThread; i += 8) {
                const unsigned n =
                    std::min(8u, kQueriesPerThread - i);
                for (unsigned j = 0; j < n; ++j) {
                    client.sendQuery(plan[base + i + j]);
                }
                for (unsigned j = 0; j < n; ++j) {
                    const QueryResult got = client.recvResult();
                    const QueryResult &want = expected[base + i + j];
                    if (got.ok != want.ok ||
                        (got.ok &&
                         !sameBits(got.domain == QueryDomain::Bus
                                       ? got.bus.processingPower
                                       : got.network.processingPower,
                                   want.domain == QueryDomain::Bus
                                       ? want.bus.processingPower
                                       : want.network
                                             .processingPower))) {
                        mismatches.fetch_add(1);
                    }
                }
            }
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }
    EXPECT_EQ(mismatches.load(), 0u);

    // Full-width bitwise audit on one thread's slice (the in-thread
    // check above compares the headline double only).
    ServiceClient audit;
    audit.connect(socket_);
    for (unsigned i = 0; i < 16; ++i) {
        expectIdentical(audit.query(plan[i]), expected[i]);
    }

    const DaemonStats totals = daemon_->stats();
    EXPECT_GE(totals.queries, kThreads * kQueriesPerThread);
    EXPECT_GE(totals.batches, 1u);
    daemon_->stop();
}

TEST_F(ServiceParallelTest, StopWhileClientsAreMidBurstIsClean)
{
    startDaemon(2, 8);
    std::atomic<bool> go{true};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 3; ++t) {
        threads.emplace_back([&] {
            try {
                ServiceClient client;
                client.connect(socket_);
                while (go.load()) {
                    (void)client.query(busQuery(Scheme::Base, 16));
                }
            } catch (const std::exception &) {
                // Connection torn down by the stop: expected.
            }
        });
    }
    // Let the clients get into a rhythm, then pull the plug.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    daemon_->stop();
    go.store(false);
    for (std::thread &thread : threads) {
        thread.join();
    }
    EXPECT_FALSE(daemon_->running());
}

/** Exit status of the swccd binary run with @p args, -1 if killed. */
int
swccdExitCode(const std::string &args)
{
    const std::string command =
        std::string(SWCCD_BINARY) + " " + args + " >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(SwccdFlagTest, MaxNetworkStagesAbove31IsRejectedAtStartup)
{
    // The socket's directory does not exist: a daemon that gets past
    // flag parsing fails to bind (exit 1), a rejected flag exits 2.
    const std::string socket = "--socket /nonexistent-swccd-dir/s.sock";
    EXPECT_EQ(swccdExitCode(socket + " --max-network-stages 32"), 2);
    EXPECT_EQ(swccdExitCode(socket + " --max-network-stages 31"), 1);
}

TEST(SwccdFlagTest, RetiredTelemetryFlagsAreRejected)
{
    // The flight recorder and the slow-query log are gone; their flags
    // must fail as unknown rather than be accepted and ignored.
    const std::string socket = "--socket /nonexistent-swccd-dir/s.sock";
    EXPECT_EQ(swccdExitCode(socket + " --flight-records 64"), 2);
    EXPECT_EQ(swccdExitCode(socket + " --flight-recorder-out f.json"), 2);
    EXPECT_EQ(swccdExitCode(socket + " --slow-query-us 1"), 2);
}

} // namespace
} // namespace swcc::service
