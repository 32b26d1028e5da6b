/**
 * @file
 * Structured leveled logger.
 *
 * A tiny stderr logger shared by every layer: parse rejects, silent
 * fallbacks, and diagnostic chatter all flow through one levelled
 * sink instead of being dropped or buried in exception text. The
 * macros capture the call site (file:line), evaluate their message
 * expression only when the level is enabled, and cost a single
 * relaxed atomic load otherwise — cheap enough for cold and warm
 * paths alike (the simulator's per-retire hot loop uses the span /
 * metrics macros, never the logger).
 *
 * The level is taken from, in priority order, setLogLevel() (the
 * CLI's `--log-level`), the SWCC_LOG_LEVEL environment variable, and
 * the default (warn). Unlike the metrics and span instrumentation the
 * logger stays functional under SWCC_OBS=OFF: replacing a silent
 * failure with a warning is diagnostics, not instrumentation.
 *
 * SWCC_LOG_WARN says each thing once: a call site prints its first
 * warning only and counts the rest, and flushLogRepeats() (run at
 * exit) adds one "repeated N more times" line per site that fired
 * again. A sweep that hits the same fallback on every point therefore
 * logs two lines, not hundreds.
 */

#ifndef SWCC_CORE_OBS_LOG_HH
#define SWCC_CORE_OBS_LOG_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace swcc::obs
{

/** Log severity, ordered least to most severe. */
enum class LogLevel : int
{
    Trace = 0,
    Debug = 1,
    Info = 2,
    Warn = 3,
    Error = 4,
    Off = 5,
};

/** Lower-case level name ("warn"); "off" for LogLevel::Off. */
std::string_view logLevelName(LogLevel level);

/** Parses "trace".."error"/"off" (case-sensitive); nullopt otherwise. */
std::optional<LogLevel> parseLogLevel(std::string_view name);

/** The currently active level (messages below it are discarded). */
LogLevel logLevel();

/** Overrides the active level (wins over SWCC_LOG_LEVEL). */
void setLogLevel(LogLevel level);

/** True if a message at @p level would currently be emitted. */
bool logEnabled(LogLevel level);

/**
 * Redirects log output (default and nullptr: stderr). The stream must
 * outlive all logging; intended for tests capturing into a
 * stringstream.
 */
void setLogSink(std::ostream *sink);

/**
 * Emits one line: `[level] file:line: message`. @p file is trimmed to
 * its basename. Thread-safe (one line is written atomically).
 * Prefer the SWCC_LOG_* macros, which check the level first.
 */
void logMessage(LogLevel level, const char *file, int line,
                const std::string &message);

/** One SWCC_LOG_WARN call site and how often it fired. */
struct LogSite
{
    const char *file;
    int line;
    std::atomic<std::uint64_t> hits{0};
};

/**
 * Counts one hit at @p site and returns true if it is the first since
 * the last flushLogRepeats(), i.e. the one to print.
 */
bool firstLogAtSite(LogSite &site);

/**
 * Writes `[warn] file:line: repeated N more times` for every site
 * whose warnings were suppressed since the last flush, then resets
 * the counts (a site's next warning prints again). Registered with
 * std::atexit on the first warning, so a process ends with the counts.
 */
void flushLogRepeats();

} // namespace swcc::obs

/** Logs @p msg (a std::string expression, evaluated lazily). */
#define SWCC_LOG_AT(level, msg)                                         \
    do {                                                                \
        if (::swcc::obs::logEnabled(level)) {                           \
            ::swcc::obs::logMessage((level), __FILE__, __LINE__,        \
                                    (msg));                             \
        }                                                               \
    } while (0)

#define SWCC_LOG_DEBUG(msg) SWCC_LOG_AT(::swcc::obs::LogLevel::Debug, msg)
#define SWCC_LOG_INFO(msg) SWCC_LOG_AT(::swcc::obs::LogLevel::Info, msg)
/** Logs @p msg the first time this call site fires; counts repeats. */
#define SWCC_LOG_WARN(msg)                                              \
    do {                                                                \
        if (::swcc::obs::logEnabled(::swcc::obs::LogLevel::Warn)) {     \
            static ::swcc::obs::LogSite swcc_log_site{__FILE__,         \
                                                      __LINE__};        \
            if (::swcc::obs::firstLogAtSite(swcc_log_site)) {           \
                ::swcc::obs::logMessage(::swcc::obs::LogLevel::Warn,    \
                                        __FILE__, __LINE__, (msg));     \
            }                                                           \
        }                                                               \
    } while (0)
#define SWCC_LOG_ERROR(msg) SWCC_LOG_AT(::swcc::obs::LogLevel::Error, msg)

#endif // SWCC_CORE_OBS_LOG_HH
