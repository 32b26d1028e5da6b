#include "core/obs/metrics.hh"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/atomic_file.hh"
#include "core/obs/json.hh"
#include "core/obs/prometheus.hh"

namespace swcc::obs
{

namespace
{

/** Shortest round-trip double rendering, always finite-safe. */
std::string
renderNumber(double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

/** RFC-4180 quoting for fields containing separators or quotes. */
std::string
csvEscape(const std::string &field)
{
    if (field.find_first_of(",\"\n\r") == std::string::npos) {
        return field;
    }
    std::string out = "\"";
    for (const char c : field) {
        if (c == '"') {
            out += '"';
        }
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

MetricsRegistry &
metrics()
{
    static MetricsRegistry registry;
    return registry;
}

MetricsRegistry::Entry *
MetricsRegistry::findEntry(std::string_view name)
{
    for (Entry &entry : entries_) {
        if (entry.name == name) {
            return &entry;
        }
    }
    return nullptr;
}

Counter &
MetricsRegistry::counter(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (Entry *existing = findEntry(name)) {
        if (existing->kind != MetricSnapshot::Kind::Counter) {
            throw std::logic_error(
                "metric '" + std::string(name) +
                "' already registered as a different kind");
        }
        return *existing->counter;
    }
    if (nextCell_ >= kMaxCells) {
        throw std::logic_error("metric cell space exhausted");
    }
    Entry entry;
    entry.name = std::string(name);
    entry.kind = MetricSnapshot::Kind::Counter;
    entry.counter.reset(new Counter(*this, nextCell_++));
    entries_.push_back(std::move(entry));
    return *entries_.back().counter;
}

Gauge &
MetricsRegistry::gauge(std::string_view name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (Entry *existing = findEntry(name)) {
        if (existing->kind != MetricSnapshot::Kind::Gauge) {
            throw std::logic_error(
                "metric '" + std::string(name) +
                "' already registered as a different kind");
        }
        return *existing->gauge;
    }
    Entry entry;
    entry.name = std::string(name);
    entry.kind = MetricSnapshot::Kind::Gauge;
    entry.gauge.reset(new Gauge());
    entries_.push_back(std::move(entry));
    return *entries_.back().gauge;
}

Histogram &
MetricsRegistry::histogram(std::string_view name,
                           std::vector<double> bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (Entry *existing = findEntry(name)) {
        if (existing->kind != MetricSnapshot::Kind::Histogram) {
            throw std::logic_error(
                "metric '" + std::string(name) +
                "' already registered as a different kind");
        }
        return *existing->histogram;
    }
    if (bounds.empty() || bounds.size() > 64 ||
        !std::is_sorted(bounds.begin(), bounds.end()) ||
        std::adjacent_find(bounds.begin(), bounds.end()) !=
            bounds.end()) {
        throw std::logic_error(
            "histogram '" + std::string(name) +
            "' needs 1..64 strictly increasing bucket bounds");
    }
    const auto buckets = static_cast<std::uint32_t>(bounds.size()) + 1;
    if (nextCell_ + buckets > kMaxCells || nextSum_ >= kMaxSums) {
        throw std::logic_error("metric cell space exhausted");
    }
    Entry entry;
    entry.name = std::string(name);
    entry.kind = MetricSnapshot::Kind::Histogram;
    entry.histogram.reset(
        new Histogram(*this, std::move(bounds), nextCell_, nextSum_));
    nextCell_ += buckets;
    ++nextSum_;
    entries_.push_back(std::move(entry));
    return *entries_.back().histogram;
}

MetricsRegistry::Shard &
MetricsRegistry::localShard()
{
    // The raw cached pointer is safe because shards are owned by the
    // (process-lifetime) registry and never deallocated.
    thread_local Shard *cached = nullptr;
    if (cached == nullptr) {
        auto shard = std::make_unique<Shard>();
        cached = shard.get();
        std::lock_guard<std::mutex> lock(mutex_);
        shards_.push_back(std::move(shard));
    }
    return *cached;
}

std::atomic<std::uint64_t> &
MetricsRegistry::cell(std::uint32_t idx)
{
    return localShard().cells[idx];
}

std::atomic<double> &
MetricsRegistry::sumCell(std::uint32_t idx)
{
    return localShard().sums[idx];
}

std::vector<MetricSnapshot>
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);

    const auto cellTotal = [&](std::uint32_t idx) {
        std::uint64_t total = 0;
        for (const auto &shard : shards_) {
            total += shard->cells[idx].load(std::memory_order_relaxed);
        }
        return total;
    };
    const auto sumTotal = [&](std::uint32_t idx) {
        double total = 0.0;
        for (const auto &shard : shards_) {
            total += shard->sums[idx].load(std::memory_order_relaxed);
        }
        return total;
    };

    std::vector<MetricSnapshot> out;
    out.reserve(entries_.size());
    for (const Entry &entry : entries_) {
        MetricSnapshot snap;
        snap.name = entry.name;
        snap.kind = entry.kind;
        switch (entry.kind) {
          case MetricSnapshot::Kind::Counter:
            snap.value = static_cast<double>(
                cellTotal(entry.counter->cell_));
            break;
          case MetricSnapshot::Kind::Gauge:
            snap.value = entry.gauge->value();
            break;
          case MetricSnapshot::Kind::Histogram: {
            const Histogram &hist = *entry.histogram;
            snap.bounds = hist.bounds_;
            snap.counts.resize(hist.bounds_.size() + 1);
            for (std::size_t b = 0; b < snap.counts.size(); ++b) {
                snap.counts[b] = cellTotal(
                    hist.firstCell_ + static_cast<std::uint32_t>(b));
                snap.count += snap.counts[b];
            }
            snap.sum = sumTotal(hist.sumCell_);
            break;
          }
        }
        out.push_back(std::move(snap));
    }
    std::sort(out.begin(), out.end(),
              [](const MetricSnapshot &a, const MetricSnapshot &b) {
                  return a.name < b.name;
              });
    return out;
}

void
MetricsRegistry::resetForTest()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &shard : shards_) {
        for (auto &c : shard->cells) {
            c.store(0, std::memory_order_relaxed);
        }
        for (auto &s : shard->sums) {
            s.store(0.0, std::memory_order_relaxed);
        }
    }
    for (Entry &entry : entries_) {
        if (entry.kind == MetricSnapshot::Kind::Gauge) {
            entry.gauge->set(0.0);
        }
    }
}

void
writeMetricsJson(std::ostream &os)
{
    const auto snaps = metrics().snapshot();
    os << "{\"metrics\":[";
    bool first = true;
    for (const MetricSnapshot &snap : snaps) {
        if (!first) {
            os << ',';
        }
        first = false;
        os << "{\"name\":\"" << jsonEscape(snap.name) << "\",";
        switch (snap.kind) {
          case MetricSnapshot::Kind::Counter:
            os << "\"kind\":\"counter\",\"value\":"
               << renderNumber(snap.value);
            break;
          case MetricSnapshot::Kind::Gauge:
            os << "\"kind\":\"gauge\",\"value\":"
               << renderNumber(snap.value);
            break;
          case MetricSnapshot::Kind::Histogram: {
            os << "\"kind\":\"histogram\",\"count\":" << snap.count
               << ",\"sum\":" << renderNumber(snap.sum)
               << ",\"buckets\":[";
            for (std::size_t b = 0; b < snap.counts.size(); ++b) {
                if (b != 0) {
                    os << ',';
                }
                os << "{\"le\":";
                if (b < snap.bounds.size()) {
                    os << renderNumber(snap.bounds[b]);
                } else {
                    os << "\"inf\"";
                }
                os << ",\"count\":" << snap.counts[b] << '}';
            }
            os << ']';
            break;
          }
        }
        os << '}';
    }
    os << "]}\n";
}

void
writeMetricsCsv(std::ostream &os)
{
    os << "name,kind,value,count,sum\n";
    for (const MetricSnapshot &snap : metrics().snapshot()) {
        const char *kind =
            snap.kind == MetricSnapshot::Kind::Counter ? "counter"
            : snap.kind == MetricSnapshot::Kind::Gauge ? "gauge"
                                                       : "histogram";
        os << csvEscape(snap.name) << ',' << kind << ','
           << renderNumber(snap.value) << ',' << snap.count << ','
           << renderNumber(snap.sum) << '\n';
    }
}

std::string
writeMetricsFile(const std::string &path)
{
    atomicWriteFile(path, [&](std::ostream &os) {
        if (path.ends_with(".csv")) {
            writeMetricsCsv(os);
        } else if (path.ends_with(".prom")) {
            writeMetricsPrometheus(os);
        } else {
            writeMetricsJson(os);
        }
    });
    return path;
}

} // namespace swcc::obs
