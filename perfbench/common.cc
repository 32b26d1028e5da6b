#include "common.hh"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/parallel.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

unsigned
benchLanes()
{
    return std::min(4u, swcc::hardwareThreads());
}

void
RunResult::add(std::string name, double value, std::string unit)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not finite");
        value = 0.0;
    }
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
}

void
RunResult::fail(const std::string &what)
{
    // The first few failures are enough to diagnose a run.
    if (failed_ < 20) {
        std::cerr << "FAILED: " << what << '\n';
    }
    ++failed_;
}

namespace
{

std::string
jsonNumber(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace

std::string
RunResult::json() const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        os << (i ? ", " : "") << '"' << metrics_[i].name
           << "\": {\"value\": " << jsonNumber(metrics_[i].value)
           << ", \"unit\": \"" << metrics_[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
hex64(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
    return buf;
}

std::string
hexDouble(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a", value);
    return buf;
}

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index = rank < 1.0
        ? 0
        : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
    return values[index];
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0; // KiB
        }
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

double
medianSetupSeconds(int times, const std::function<void()> &body)
{
    std::vector<double> seconds;
    for (int i = 0; i < times; ++i) {
        const Clock::time_point start = Clock::now();
        body();
        seconds.push_back(secondsSince(start));
    }
    // Writing 5 to clear_refs resets the peak RSS (Linux >= 4.0).
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5" << std::flush;
    if (!clear) {
        throw std::runtime_error("cannot reset the peak RSS");
    }
    return median(seconds);
}

void
ReferenceSet::load(const std::string &path, std::uint64_t seed)
{
    entries_.clear();
    std::ifstream is(path);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream fields(line);
        std::uint64_t line_seed = 0;
        std::string key, digest;
        double error = 0.0;
        if (!(fields >> line_seed >> key >> digest >> error)) {
            throw std::runtime_error(path + ": malformed line: " + line);
        }
        if (line_seed == seed) {
            entries_[key] =
                ReferenceEntry{std::stoull(digest, nullptr, 16), error};
        }
    }
}

const ReferenceEntry *
ReferenceSet::find(const std::string &key) const
{
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
}

void
ReferenceSet::set(const std::string &key, ReferenceEntry entry)
{
    entries_[key] = entry;
}

void
ReferenceSet::append(const std::string &path, std::uint64_t seed) const
{
    std::ofstream os(path, std::ios::app);
    for (const auto &[key, entry] : entries_) {
        char error[32];
        std::snprintf(error, sizeof error, "%.6f", entry.errorPercent);
        os << seed << ' ' << key << ' ' << hex64(entry.digest) << ' '
           << error << '\n';
    }
    if (!os) {
        throw std::runtime_error("cannot write " + path);
    }
}

void
checkAgainstReference(ReferenceSet &refs, const std::string &key,
                      std::uint64_t digest, double error_percent,
                      RunResult &result)
{
    result.attempt();
    const ReferenceEntry *ref = refs.find(key);
    if (ref == nullptr) {
        refs.set(key, ReferenceEntry{digest, error_percent});
        return;
    }
    if (ref->digest != digest) {
        result.fail(key + ": statistics digest " + hex64(digest) +
                    " differs from reference " + hex64(ref->digest));
    } else if (!(std::fabs(error_percent - ref->errorPercent) <=
                 kErrorTolerancePoints)) {
        result.fail(key + ": model error " +
                    std::to_string(error_percent) + "% is more than " +
                    std::to_string(kErrorTolerancePoints) +
                    " points from reference " +
                    std::to_string(ref->errorPercent) + "%");
    }
}

} // namespace perfbench
