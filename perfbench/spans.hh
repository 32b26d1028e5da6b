/**
 * @file
 * Benchmark-side spans around calls into the library's layers.
 *
 * Spans live in memory while a traced run executes and are written
 * once, at the end, as Chrome trace-event JSON. Each span records its
 * name, start, end and parent; spans of one validation point or one
 * service batch share a group id. With the recorder disabled a Scope
 * costs one branch, which is how the traced run measures its own
 * overhead: the same pass runs once with spans off and once on.
 */

#ifndef SWCC_PERFBENCH_SPANS_HH
#define SWCC_PERFBENCH_SPANS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench
{

class SpanRecorder
{
  public:
    struct Span
    {
        /** Layer name, optionally suffixed with ".<tag>". */
        std::string name;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::uint64_t group = 0;
        std::uint32_t tid = 0;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
    };

    /** Records one span for its lifetime (nothing when disabled). */
    class Scope
    {
      public:
        Scope(SpanRecorder &recorder, std::string name,
              std::uint64_t group);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *recorder_ = nullptr;
        Span span_;
        std::uint64_t savedParent_ = 0;
    };

    SpanRecorder();

    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /** A fresh group id for the spans of one point or batch. */
    std::uint64_t newGroup() { return nextGroup_.fetch_add(1) + 1; }

    /** Drops every recorded span. */
    void clear();

    /** Summed duration of the spans named @p name, seconds. */
    double totalSeconds(const std::string &name) const;

    /**
     * Summed self time per span name, seconds: each span's duration
     * less the time its child spans cover.
     */
    std::map<std::string, double> selfSeconds() const;

    /**
     * Writes the spans as Chrome trace JSON to @p path, then parses
     * the file back and checks it against the trace-event contract
     * tools/trace_check enforces. Returns the first violation, or an
     * empty string when the file is valid.
     */
    std::string writeChromeTrace(const std::string &path) const;

  private:
    void record(Span span);

    bool enabled_ = false;
    Clock::time_point epoch_;
    std::atomic<std::uint64_t> nextId_{0};
    std::atomic<std::uint64_t> nextGroup_{0};
    mutable std::mutex mutex_;
    std::vector<Span> spans_; ///< Guarded by mutex_.
};

} // namespace perfbench

#endif // SWCC_PERFBENCH_SPANS_HH
