#include "core/obs/log.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <ostream>
#include <vector>

namespace swcc::obs
{

namespace
{

/** SWCC_LOG_LEVEL, or the default (warn) when unset or unparsable. */
LogLevel
envLogLevel()
{
    const char *env = std::getenv("SWCC_LOG_LEVEL");
    if (env != nullptr) {
        if (const auto parsed = parseLogLevel(env)) {
            return *parsed;
        }
    }
    return LogLevel::Warn;
}

std::atomic<int> &
levelCell()
{
    static std::atomic<int> level{static_cast<int>(envLogLevel())};
    return level;
}

std::mutex sink_mutex;
std::ostream *sink = nullptr;

/** Every SWCC_LOG_WARN site that has fired, in first-fire order. */
std::mutex sites_mutex;
std::vector<LogSite *> *sites = nullptr;

} // namespace

std::string_view
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Trace: return "trace";
      case LogLevel::Debug: return "debug";
      case LogLevel::Info:  return "info";
      case LogLevel::Warn:  return "warn";
      case LogLevel::Error: return "error";
      case LogLevel::Off:   return "off";
    }
    return "?";
}

std::optional<LogLevel>
parseLogLevel(std::string_view name)
{
    for (LogLevel level : {LogLevel::Trace, LogLevel::Debug,
                           LogLevel::Info, LogLevel::Warn,
                           LogLevel::Error, LogLevel::Off}) {
        if (name == logLevelName(level)) {
            return level;
        }
    }
    return std::nullopt;
}

LogLevel
logLevel()
{
    return static_cast<LogLevel>(
        levelCell().load(std::memory_order_relaxed));
}

void
setLogLevel(LogLevel level)
{
    levelCell().store(static_cast<int>(level),
                      std::memory_order_relaxed);
}

bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) >=
        levelCell().load(std::memory_order_relaxed);
}

void
setLogSink(std::ostream *stream)
{
    std::lock_guard<std::mutex> lock(sink_mutex);
    sink = stream;
}

void
logMessage(LogLevel level, const char *file, int line,
           const std::string &message)
{
    const char *base = file;
    for (const char *p = file; *p != '\0'; ++p) {
        if (*p == '/' || *p == '\\') {
            base = p + 1;
        }
    }
    // Compose off-lock, write the finished line under the lock so
    // concurrent messages never interleave mid-line.
    std::string text;
    text.reserve(message.size() + 32);
    text += '[';
    text += logLevelName(level);
    text += "] ";
    text += base;
    text += ':';
    text += std::to_string(line);
    text += ": ";
    text += message;
    text += '\n';
    std::lock_guard<std::mutex> lock(sink_mutex);
    std::ostream &out = sink != nullptr ? *sink : std::cerr;
    out << text;
    out.flush();
}

bool
firstLogAtSite(LogSite &site)
{
    if (site.hits.fetch_add(1, std::memory_order_relaxed) != 0) {
        return false;
    }
    std::lock_guard<std::mutex> lock(sites_mutex);
    if (sites == nullptr) {
        // Never freed: the exit handler below may still walk it.
        sites = new std::vector<LogSite *>;
        std::atexit(flushLogRepeats);
    }
    if (std::find(sites->begin(), sites->end(), &site) == sites->end()) {
        sites->push_back(&site);
    }
    return true;
}

void
flushLogRepeats()
{
    std::lock_guard<std::mutex> lock(sites_mutex);
    if (sites == nullptr) {
        return;
    }
    for (LogSite *site : *sites) {
        const std::uint64_t hits =
            site->hits.exchange(0, std::memory_order_relaxed);
        if (hits > 1) {
            logMessage(LogLevel::Warn, site->file, site->line,
                       "repeated " + std::to_string(hits - 1) +
                           " more times");
        }
    }
}

} // namespace swcc::obs
