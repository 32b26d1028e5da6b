#include "spans.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "core/obs/json.hh"

namespace perfbench
{

namespace
{

/** The innermost open span on this thread (0: none). */
thread_local std::uint64_t tlsCurrent = 0;

std::uint32_t
threadNumber()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t number = next.fetch_add(1) + 1;
    return number;
}

std::int64_t
nanosFrom(Clock::time_point epoch)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

} // namespace

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

SpanRecorder::Scope::Scope(SpanRecorder &recorder, std::string name,
                           std::uint64_t group)
{
    if (!recorder.enabled()) {
        return;
    }
    recorder_ = &recorder;
    span_.name = std::move(name);
    span_.id = recorder.nextId_.fetch_add(1) + 1;
    span_.parent = tlsCurrent;
    span_.group = group;
    span_.tid = threadNumber();
    savedParent_ = tlsCurrent;
    tlsCurrent = span_.id;
    span_.startNs = nanosFrom(recorder.epoch_);
}

SpanRecorder::Scope::~Scope()
{
    if (recorder_ == nullptr) {
        return;
    }
    span_.endNs = nanosFrom(recorder_->epoch_);
    tlsCurrent = savedParent_;
    recorder_->record(std::move(span_));
}

void
SpanRecorder::record(Span span)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

void
SpanRecorder::clear()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
}

double
SpanRecorder::totalSeconds(const std::string &name) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    double total = 0.0;
    for (const Span &span : spans_) {
        if (span.name == name) {
            total += static_cast<double>(span.endNs - span.startNs) * 1e-9;
        }
    }
    return total;
}

std::map<std::string, double>
SpanRecorder::selfSeconds() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    // Children of one span run on its thread and never overlap each
    // other, so their summed durations are the covered time.
    std::map<std::uint64_t, std::int64_t> covered;
    for (const Span &span : spans_) {
        if (span.parent != 0) {
            covered[span.parent] += span.endNs - span.startNs;
        }
    }
    std::map<std::string, double> self;
    for (const Span &span : spans_) {
        const auto it = covered.find(span.id);
        const std::int64_t children = it == covered.end() ? 0 : it->second;
        self[span.name] +=
            static_cast<double>(span.endNs - span.startNs - children) *
            1e-9;
    }
    return self;
}

std::string
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::vector<Span> spans;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        spans = spans_;
    }
    // Per thread in start order, an enclosing span before the spans
    // it contains: the order the trace-event contract requires.
    std::sort(spans.begin(), spans.end(),
              [](const Span &a, const Span &b) {
                  return std::tuple(a.tid, a.startNs, b.endNs, a.id) <
                      std::tuple(b.tid, b.startNs, a.endNs, b.id);
              });
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    {
        std::ofstream os(path);
        os << "{\"traceEvents\":[";
        char ts[64];
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            std::snprintf(ts, sizeof ts,
                          "\"ts\":%.3f,\"dur\":%.3f",
                          static_cast<double>(s.startNs) * 1e-3,
                          static_cast<double>(s.endNs - s.startNs) *
                              1e-3);
            os << (i ? ",\n" : "\n") << "{\"name\":\""
               << swcc::obs::jsonEscape(s.name)
               << "\",\"cat\":\"perfbench\",\"ph\":\"X\"," << ts
               << ",\"pid\":1,\"tid\":" << s.tid << ",\"args\":{\"id\":"
               << s.id << ",\"parent\":" << s.parent
               << ",\"group\":" << s.group << "}}";
        }
        os << "\n]}\n";
        if (!os) {
            return "cannot write " + path;
        }
    }
    std::ifstream is(path);
    std::ostringstream text;
    text << is.rdbuf();
    try {
        std::string error;
        if (!swcc::obs::validateChromeTrace(
                swcc::obs::parseJson(text.str()), &error)) {
            return path + ": " + error;
        }
    } catch (const std::exception &error) {
        return path + ": " + error.what();
    }
    return {};
}

} // namespace perfbench
