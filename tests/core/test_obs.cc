/**
 * @file
 * Unit tests for the observability layer: metrics registry shard
 * merging, the leveled logger, the JSON parser / Chrome-trace
 * validator, the span recorder, and the progress reporter.
 *
 * Every test must pass under both SWCC_OBS=ON and SWCC_OBS=OFF; where
 * recording compiles away, the expected values switch on
 * obs::compiledIn() (exports stay valid, they just read zero/empty).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/obs/obs.hh"

namespace swcc
{
namespace
{

/** Snapshot entry by name; fails the test if absent. */
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

/** Restores the default log sink and level on scope exit. */
struct LogCaptureGuard
{
    std::ostringstream captured;
    obs::LogLevel saved = obs::logLevel();

    LogCaptureGuard() { obs::setLogSink(&captured); }
    ~LogCaptureGuard()
    {
        obs::setLogSink(nullptr);
        obs::setLogLevel(saved);
    }
};

TEST(MetricsTest, CountersSumAcrossThreads)
{
    obs::metrics().resetForTest();
    obs::Counter &hits = obs::metrics().counter("test.obs.hits");

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 750; ++i) {
                hits.add();
            }
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }

    const obs::MetricSnapshot snap = findMetric("test.obs.hits");
    EXPECT_EQ(snap.kind, obs::MetricSnapshot::Kind::Counter);
    EXPECT_EQ(snap.value, obs::compiledIn() ? 3000.0 : 0.0);
}

TEST(MetricsTest, RegistrationIsIdempotentAndKindChecked)
{
    obs::Counter &a = obs::metrics().counter("test.obs.idem");
    obs::Counter &b = obs::metrics().counter("test.obs.idem");
    EXPECT_EQ(&a, &b);
    EXPECT_THROW(obs::metrics().gauge("test.obs.idem"),
                 std::logic_error);
    EXPECT_THROW(obs::metrics().histogram("test.obs.idem", {1.0}),
                 std::logic_error);
}

TEST(MetricsTest, HistogramBucketsAndSum)
{
    obs::metrics().resetForTest();
    obs::Histogram &widths =
        obs::metrics().histogram("test.obs.widths", {1.0, 10.0, 100.0});
    widths.observe(0.5);   // bucket 0 (<= 1)
    widths.observe(5.0);   // bucket 1 (<= 10)
    widths.observe(50.0);  // bucket 2 (<= 100)
    widths.observe(500.0); // bucket 3 (+inf)
    widths.observe(500.0); // bucket 3 (+inf)

    const obs::MetricSnapshot snap = findMetric("test.obs.widths");
    EXPECT_EQ(snap.kind, obs::MetricSnapshot::Kind::Histogram);
    ASSERT_EQ(snap.bounds.size(), 3u);
    ASSERT_EQ(snap.counts.size(), 4u);
    if (obs::compiledIn()) {
        EXPECT_EQ(snap.counts[0], 1u);
        EXPECT_EQ(snap.counts[1], 1u);
        EXPECT_EQ(snap.counts[2], 1u);
        EXPECT_EQ(snap.counts[3], 2u);
        EXPECT_EQ(snap.count, 5u);
        EXPECT_DOUBLE_EQ(snap.sum, 1055.5);
    } else {
        EXPECT_EQ(snap.count, 0u);
    }
}

TEST(MetricsTest, HistogramRejectsBadBounds)
{
    EXPECT_THROW(obs::metrics().histogram("test.obs.empty", {}),
                 std::logic_error);
    EXPECT_THROW(
        obs::metrics().histogram("test.obs.unsorted", {2.0, 1.0}),
        std::logic_error);
}

TEST(MetricsTest, JsonExportParses)
{
    obs::metrics().counter("test.obs.export\"quoted").add(7);
    std::ostringstream os;
    obs::writeMetricsJson(os);
    const obs::JsonValue doc = obs::parseJson(os.str());
    ASSERT_TRUE(doc.isObject());
    const obs::JsonValue *metrics = doc.find("metrics");
    ASSERT_NE(metrics, nullptr);
    ASSERT_TRUE(metrics->isArray());
    bool found = false;
    for (const obs::JsonValue &entry : metrics->array) {
        const obs::JsonValue *name = entry.find("name");
        ASSERT_NE(name, nullptr);
        if (name->string == "test.obs.export\"quoted") {
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(MetricsTest, CsvExportQuotesHostileNames)
{
    // RFC-4180 round trip: a name containing the separator, quotes,
    // and a newline must come back intact from the CSV export.
    const std::string hostile = "test.obs,csv\"quoted\"\nname";
    obs::metrics().counter(hostile).add(3);
    std::ostringstream os;
    obs::writeMetricsCsv(os);
    const std::string text = os.str();

    // The quoted form: field wrapped in quotes, inner quotes doubled.
    const std::string quoted = "\"test.obs,csv\"\"quoted\"\"\nname\"";
    const std::size_t at = text.find(quoted);
    ASSERT_NE(at, std::string::npos) << text;

    // Un-quote the field by hand (the round trip): scan from the
    // opening quote to the closing one, collapsing doubled quotes.
    std::string decoded;
    std::size_t i = at + 1;
    while (i < text.size()) {
        if (text[i] == '"') {
            if (i + 1 < text.size() && text[i + 1] == '"') {
                decoded += '"';
                i += 2;
                continue;
            }
            break;
        }
        decoded += text[i++];
    }
    EXPECT_EQ(decoded, hostile);
    // The rest of the row is ordinary fields.
    EXPECT_EQ(text.compare(at + quoted.size(), 9, ",counter,"), 0)
        << text.substr(at);
}

TEST(LogTest, LevelsFilterAndCaptureCallSite)
{
    LogCaptureGuard guard;
    obs::setLogLevel(obs::LogLevel::Warn);
    SWCC_LOG_DEBUG("invisible");
    SWCC_LOG_WARN("something fell back");
    const std::string text = guard.captured.str();
    EXPECT_EQ(text.find("invisible"), std::string::npos);
    EXPECT_NE(text.find("[warn]"), std::string::npos);
    EXPECT_NE(text.find("test_obs.cc:"), std::string::npos);
    EXPECT_NE(text.find("something fell back"), std::string::npos);
}

TEST(LogTest, WarnPrintsOncePerSiteThenCountsRepeats)
{
    LogCaptureGuard guard;
    obs::setLogLevel(obs::LogLevel::Warn);
    obs::flushLogRepeats();
    for (int i = 0; i < 5; ++i) {
        SWCC_LOG_WARN("fallback " + std::to_string(i));
    }
    SWCC_LOG_WARN("another site");
    const std::string before = guard.captured.str();
    EXPECT_NE(before.find("fallback 0"), std::string::npos);
    EXPECT_EQ(before.find("fallback 1"), std::string::npos);
    EXPECT_NE(before.find("another site"), std::string::npos);

    obs::flushLogRepeats();
    const std::string after = guard.captured.str().substr(before.size());
    // One count line, for the site that fired more than once.
    EXPECT_NE(after.find("repeated 4 more times"), std::string::npos)
        << after;
    EXPECT_EQ(after.find("repeated", after.find("repeated") + 1),
              std::string::npos)
        << after;
    EXPECT_NE(after.find("test_obs.cc:"), std::string::npos);

    // A flush resets the counts, so nothing is reported twice.
    obs::flushLogRepeats();
    EXPECT_EQ(guard.captured.str().size(), before.size() + after.size());
}

TEST(LogTest, WarnOncePerSiteAcrossThreads)
{
    LogCaptureGuard guard;
    obs::setLogLevel(obs::LogLevel::Warn);
    obs::flushLogRepeats();
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < 100; ++i) {
                SWCC_LOG_WARN("shared fallback");
            }
        });
    }
    for (std::thread &thread : threads) {
        thread.join();
    }
    obs::flushLogRepeats();
    const std::string text = guard.captured.str();
    const std::size_t first = text.find("shared fallback");
    ASSERT_NE(first, std::string::npos) << text;
    EXPECT_EQ(text.find("shared fallback", first + 1), std::string::npos)
        << text;
    EXPECT_NE(text.find("repeated 399 more times"), std::string::npos)
        << text;
}

TEST(LogTest, ErrorIsNotDeduplicated)
{
    LogCaptureGuard guard;
    obs::setLogLevel(obs::LogLevel::Warn);
    for (int i = 0; i < 3; ++i) {
        SWCC_LOG_ERROR("failure " + std::to_string(i));
    }
    const std::string text = guard.captured.str();
    EXPECT_NE(text.find("failure 0"), std::string::npos);
    EXPECT_NE(text.find("failure 2"), std::string::npos);
}

TEST(LogTest, LazyMessageIsNotEvaluatedBelowLevel)
{
    LogCaptureGuard guard;
    obs::setLogLevel(obs::LogLevel::Error);
    int evaluations = 0;
    const auto expensive = [&] {
        ++evaluations;
        return std::string("built");
    };
    SWCC_LOG_WARN(expensive());
    EXPECT_EQ(evaluations, 0);
    SWCC_LOG_ERROR(expensive());
    EXPECT_EQ(evaluations, 1);
}

TEST(LogTest, ParseLogLevelRoundTrips)
{
    for (obs::LogLevel level :
         {obs::LogLevel::Trace, obs::LogLevel::Debug,
          obs::LogLevel::Info, obs::LogLevel::Warn,
          obs::LogLevel::Error, obs::LogLevel::Off}) {
        const auto parsed =
            obs::parseLogLevel(obs::logLevelName(level));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, level);
    }
    EXPECT_FALSE(obs::parseLogLevel("verbose").has_value());
}

TEST(JsonTest, ParsesTheWholeLanguage)
{
    const obs::JsonValue doc = obs::parseJson(
        R"({"a": [1, -2.5e3, "x\n\"yA"], "b": {"c": true},)"
        R"( "d": null})");
    ASSERT_TRUE(doc.isObject());
    const obs::JsonValue *a = doc.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->array.size(), 3u);
    EXPECT_DOUBLE_EQ(a->array[1].number, -2500.0);
    EXPECT_EQ(a->array[2].string, "x\n\"yA");
    const obs::JsonValue *c = doc.find("b")->find("c");
    ASSERT_NE(c, nullptr);
    EXPECT_TRUE(c->boolean);
    EXPECT_TRUE(doc.find("d")->isNull());
}

TEST(JsonTest, RejectsMalformedDocuments)
{
    EXPECT_THROW(obs::parseJson(""), std::runtime_error);
    EXPECT_THROW(obs::parseJson("{"), std::runtime_error);
    EXPECT_THROW(obs::parseJson("[1,]"), std::runtime_error);
    EXPECT_THROW(obs::parseJson("{} trailing"), std::runtime_error);
    EXPECT_THROW(obs::parseJson("\"unterminated"), std::runtime_error);
}

TEST(JsonTest, ChromeValidatorCatchesViolations)
{
    std::string error;

    const obs::JsonValue good = obs::parseJson(R"({"traceEvents": [
        {"name":"p","ph":"B","ts":1,"pid":1,"tid":1},
        {"ph":"E","ts":5,"pid":1,"tid":1},
        {"name":"x","ph":"X","ts":6,"dur":2,"pid":1,"tid":1}]})");
    EXPECT_TRUE(obs::validateChromeTrace(good, &error)) << error;

    const obs::JsonValue decreasing = obs::parseJson(R"({"traceEvents": [
        {"name":"a","ph":"X","ts":9,"dur":1,"pid":1,"tid":1},
        {"name":"b","ph":"X","ts":3,"dur":1,"pid":1,"tid":1}]})");
    EXPECT_FALSE(obs::validateChromeTrace(decreasing, nullptr));

    const obs::JsonValue unbalanced = obs::parseJson(R"({"traceEvents": [
        {"name":"p","ph":"B","ts":1,"pid":1,"tid":1}]})");
    EXPECT_FALSE(obs::validateChromeTrace(unbalanced, nullptr));

    const obs::JsonValue orphan_end = obs::parseJson(R"({"traceEvents": [
        {"ph":"E","ts":1,"pid":1,"tid":1}]})");
    EXPECT_FALSE(obs::validateChromeTrace(orphan_end, nullptr));

    const obs::JsonValue negative_dur = obs::parseJson(R"({"traceEvents": [
        {"name":"x","ph":"X","ts":1,"dur":-2,"pid":1,"tid":1}]})");
    EXPECT_FALSE(obs::validateChromeTrace(negative_dur, nullptr));
}

TEST(TraceRecorderTest, EmitsValidChromeTrace)
{
    obs::TraceRecorder &trc = obs::tracer();
    trc.clearForTest();
    trc.setEnabled(true);
    const std::uint32_t work = trc.intern("work");
    const std::uint32_t mark = trc.intern("mark");
    const std::uint32_t load = trc.intern("load");
    if (trc.enabled()) {
        // Out-of-order appends on one stream: emission must sort.
        trc.recordComplete(work, 2, 0, 50.0, 10.0);
        trc.recordComplete(work, 2, 0, 10.0, 5.0);
        trc.recordInstant(mark, 2, 1, 30.0);
        trc.recordCounter(load, 2, 1, 40.0, 0.75);
        trc.recordBegin(work, obs::TraceRecorder::kWallPid,
                        trc.callerTid(), 1.0);
        trc.recordEnd(obs::TraceRecorder::kWallPid, trc.callerTid(),
                      2.0);
        trc.setProcessName(2, "sim");
        trc.setThreadName(2, 0, "cpu 0");
    }
    std::ostringstream os;
    trc.writeChromeTrace(os);
    trc.setEnabled(false);

    std::string error;
    const obs::JsonValue doc = obs::parseJson(os.str());
    EXPECT_TRUE(obs::validateChromeTrace(doc, &error)) << error;

    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t spans = 0;
    for (const obs::JsonValue &event : events->array) {
        const obs::JsonValue *ph = event.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->string == "X") {
            ++spans;
        }
    }
    EXPECT_EQ(spans, obs::compiledIn() ? 2u : 0u);
}

TEST(TraceRecorderTest, FlowAndAsyncEventsValidate)
{
    // The daemon's per-query chain: an X span per stage, flow events
    // binding them across threads, and an async begin/end pair for the
    // queue residency. The Chrome validator must accept all of it.
    obs::TraceRecorder &trc = obs::tracer();
    trc.clearForTest();
    trc.setEnabled(true);
    const std::uint32_t decode = trc.intern("svc.decode");
    const std::uint32_t solve = trc.intern("svc.solve");
    const std::uint32_t queue = trc.intern("svc.queue");
    const std::uint32_t flow = trc.intern("svc.query");
    if (trc.enabled()) {
        trc.recordComplete(decode, 3, 1, 10.0, 4.0);
        trc.recordFlowStart(flow, 3, 1, 12.0, 77);
        trc.recordAsyncBegin(queue, 3, 1, 14.0, 77);
        trc.recordAsyncEnd(queue, 3, 2, 20.0, 77);
        trc.recordComplete(solve, 3, 2, 20.0, 6.0);
        trc.recordFlowStep(flow, 3, 2, 23.0, 77);
        trc.recordFlowEnd(flow, 3, 1, 30.0, 77);
    }
    std::ostringstream os;
    trc.writeChromeTrace(os);
    trc.setEnabled(false);

    std::string error;
    const obs::JsonValue doc = obs::parseJson(os.str());
    EXPECT_TRUE(obs::validateChromeTrace(doc, &error)) << error;

    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t flows = 0, asyncs = 0;
    for (const obs::JsonValue &event : events->array) {
        const std::string &ph = event.find("ph")->string;
        if (ph == "s" || ph == "t" || ph == "f") {
            ++flows;
            const obs::JsonValue *id = event.find("id");
            ASSERT_NE(id, nullptr);
            EXPECT_DOUBLE_EQ(id->number, 77.0);
        } else if (ph == "b" || ph == "e") {
            ++asyncs;
        }
    }
    EXPECT_EQ(flows, obs::compiledIn() ? 3u : 0u);
    EXPECT_EQ(asyncs, obs::compiledIn() ? 2u : 0u);
}

TEST(TraceRecorderTest, RingWrapDropsOldestButStaysValid)
{
    obs::TraceRecorder &trc = obs::tracer();
    trc.clearForTest();
    trc.setEnabled(true);
    const std::uint32_t name = trc.intern("wrap");
    if (trc.enabled()) {
        for (int i = 0; i < 500; ++i) {
            trc.recordComplete(name, 2, 7, static_cast<double>(i),
                               0.5);
        }
    }
    std::ostringstream os;
    trc.writeChromeTrace(os);
    trc.setEnabled(false);

    std::string error;
    EXPECT_TRUE(obs::validateChromeTrace(obs::parseJson(os.str()),
                                         &error))
        << error;
    // The default ring holds far more than 500 records, so nothing
    // dropped here; the accounting itself is what we pin.
    EXPECT_EQ(trc.droppedRecords(), 0u);
}

TEST(ProgressTest, ReportsRateAndFinish)
{
    std::ostringstream captured;
    obs::setProgressSink(&captured);
    obs::setProgressEnabled(true);
    {
        obs::ProgressReporter progress("unit", 4);
        progress.tick(4);
        progress.finish();
    }
    obs::setProgressEnabled(false);
    obs::setProgressSink(nullptr);
    const std::string text = captured.str();
    EXPECT_NE(text.find("unit: 4/4"), std::string::npos) << text;
    EXPECT_NE(text.find("100.0%"), std::string::npos) << text;
}

TEST(ProgressTest, DisabledReporterIsSilent)
{
    std::ostringstream captured;
    obs::setProgressSink(&captured);
    obs::setProgressEnabled(false);
    {
        obs::ProgressReporter progress("quiet", 10);
        progress.tick(10);
        progress.finish();
    }
    obs::setProgressSink(nullptr);
    EXPECT_TRUE(captured.str().empty());
}

TEST(CliConfigTest, ConsumeArgsStripsObsFlags)
{
    LogCaptureGuard guard; // restores the level set by --log-level
    std::vector<std::string> storage = {
        "bench", "--log-level=error", "--positional", "--progress",
        "--metrics-out", "", // empty path: nothing pending to write
    };
    std::vector<char *> argv;
    for (std::string &arg : storage) {
        argv.push_back(arg.data());
    }
    argv.push_back(nullptr);
    int argc = static_cast<int>(storage.size());

    obs::consumeArgs(argc, argv.data());
    obs::setProgressEnabled(false);

    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[0], "bench");
    EXPECT_STREQ(argv[1], "--positional");
    EXPECT_EQ(argv[2], nullptr);
    EXPECT_EQ(obs::logLevel(), obs::LogLevel::Error);
}

TEST(CliConfigTest, ApplyCliRejectsUnknownLogLevel)
{
    obs::CliConfig config;
    config.logLevel = "shout";
    EXPECT_THROW(obs::applyCli(config), std::invalid_argument);
}

} // namespace
} // namespace swcc
