/**
 * @file
 * Shared plumbing of the repository benchmark: options, the result
 * that every workload fills in, reference digests, and small helpers
 * for timing and order statistics.
 */

#ifndef SWCC_PERFBENCH_COMMON_HH
#define SWCC_PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds from @p start to now. */
double secondsSince(Clock::time_point start);

/** Lanes of the global pool; the benchmark never uses more threads. */
unsigned benchLanes();

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Directory holding the recorded reference files. */
    std::string referenceDir = "perfbench/reference";
    /** Directory for the run's files: traces and the daemon socket. */
    std::string outDir = ".bench_build/run";
    /** Recorded by the caller (the checkout may not be a repository). */
    std::string commit = "unknown";
};

/** One named metric as printed in the final JSON line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run produces: counts, failures and metrics. */
class RunResult
{
  public:
    void add(std::string name, double value, std::string unit);

    /** Counts one checked output. */
    void attempt(std::uint64_t n = 1) { attempted_ += n; }

    /** Records one failed output check (printed to stderr). */
    void fail(const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return failed_ == 0 && attempted_ > 0; }

    /** A provenance note printed with the run (e.g. reference source). */
    void note(const std::string &key, const std::string &value)
    {
        notes_[key] = value;
    }
    const std::map<std::string, std::string> &notes() const
    {
        return notes_;
    }

    /** The run's last output line: correct, attempted, failed, metrics. */
    std::string json() const;

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<Metric> metrics_;
    std::map<std::string, std::string> notes_;
};

/** 64-bit FNV-1a, the digest of serialized simulator statistics. */
std::uint64_t fnv1a(std::string_view bytes);

/** Sixteen lower-case hex digits. */
std::string hex64(std::uint64_t value);

/** Exact decimal-free rendering of a double (C99 hexfloat). */
std::string hexDouble(double value);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * Nearest-rank quantile of @p values, q in [0, 1] (0 when empty).
 */
double quantile(std::vector<double> values, double q);

/**
 * Peak resident set size of this process since set-up ended (the
 * kernel's high-water mark after medianSetupSeconds() reset it), MiB.
 */
double peakRssMb();

/**
 * Runs @p body @p times times and returns the median wall seconds: the
 * set-up measurement, repeated so one slow start does not set it. Then
 * resets the resident-set high-water mark, so peakRssMb() reports the
 * timed part of the run.
 */
double medianSetupSeconds(int times, const std::function<void()> &body);

/** One recorded output of a workload at one seed. */
struct ReferenceEntry
{
    std::uint64_t digest = 0;
    /** Signed model error of the point, percent. */
    double errorPercent = 0.0;
};

/**
 * Reference digests recorded at the commit that introduced the
 * benchmark, one file per workload, one line per (seed, point):
 * `<seed> <key> <digest> <error%>`.
 */
class ReferenceSet
{
  public:
    /** Loads the entries of @p seed from @p path (absent file: none). */
    void load(const std::string &path, std::uint64_t seed);

    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }

    const ReferenceEntry *find(const std::string &key) const;

    /** Replaces an entry (recording mode and the self-test). */
    void set(const std::string &key, ReferenceEntry entry);

    /** Appends this set's lines for @p seed to @p path. */
    void append(const std::string &path, std::uint64_t seed) const;

  private:
    std::map<std::string, ReferenceEntry> entries_;
};

/** Points at most this many percentage points from the reference. */
inline constexpr double kErrorTolerancePoints = 2.0;

/**
 * Checks one produced output against the reference. With no recorded
 * entry for the seed, the first output seen under @p key becomes the
 * reference, so later passes are still compared with it.
 */
void checkAgainstReference(ReferenceSet &refs, const std::string &key,
                           std::uint64_t digest, double error_percent,
                           RunResult &result);

} // namespace perfbench

#endif // SWCC_PERFBENCH_COMMON_HH
