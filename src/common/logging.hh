/**
 * @file
 * gem5-style status and error reporting helpers, with leveled output.
 *
 * panic()  — an internal invariant of the simulator was violated (a bug
 *            in this library); aborts.
 * fatal()  — the user configured something impossible; exits cleanly.
 * error()  — a recoverable operational failure (e.g. an unwritable
 *            output file); always printed.
 * warn()   — something is off but the simulation can continue.
 * inform() — plain status output.
 * debug()  — chatty diagnostics, off by default.
 *
 * Severity is filtered by a process-wide level: messages above the
 * active level are suppressed. The level comes from the `LF_LOG`
 * environment variable ("error", "warn", "info", or "debug"; default
 * "info") the first time anything is emitted, and can be overridden
 * programmatically with setLogLevel(). The legacy `verboseLogging`
 * switch still silences inform()/warn() (CLIs' --quiet), but never
 * error().
 */

#ifndef LF_COMMON_LOGGING_HH
#define LF_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace lf {

/** Global verbosity switch; set false to silence inform()/warn()/
 *  debug() regardless of the log level (error() stays on). */
extern bool verboseLogging;

/** Severity threshold: a message prints only when its level is <=
 *  the active one. Values are ordered, Error lowest. */
enum class LogLevel
{
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
};

/** Active threshold: setLogLevel() if called, else parsed once from
 *  the LF_LOG environment variable, else Info. */
LogLevel logLevel();

/** Override the threshold (takes precedence over LF_LOG). */
void setLogLevel(LogLevel level);

/**
 * A failure a legal spec can reach inside one trial (the run guards of
 * Core::runUntilRetired()). Unlike lf_panic it does not end the
 * process: runExperiment() turns it into an error row, so a sweep or
 * campaign shard records the row and goes on.
 */
class TrialError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

namespace detail {

[[noreturn]] void terminateWith(const char *kind, const std::string &msg,
                                const char *file, int line, bool abortRun);

void emit(LogLevel level, const char *kind, const std::string &msg);

std::string formatString(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace detail

} // namespace lf

/** Abort: simulator-internal invariant violated. */
#define lf_panic(...)                                                    \
    ::lf::detail::terminateWith("panic", ::lf::detail::formatString(     \
        __VA_ARGS__), __FILE__, __LINE__, true)

/** Exit(1): user error (bad configuration or arguments). */
#define lf_fatal(...)                                                    \
    ::lf::detail::terminateWith("fatal", ::lf::detail::formatString(     \
        __VA_ARGS__), __FILE__, __LINE__, false)

/** Panic when a condition does not hold. */
#define lf_assert(cond, ...)                                             \
    do {                                                                 \
        if (!(cond)) {                                                   \
            ::lf::detail::terminateWith("panic: assert(" #cond ")",      \
                ::lf::detail::formatString(__VA_ARGS__),                 \
                __FILE__, __LINE__, true);                               \
        }                                                                \
    } while (0)

/** Throw a TrialError: this trial cannot finish, the process can. */
#define lf_trial_error(...)                                              \
    throw ::lf::TrialError(::lf::detail::formatString(__VA_ARGS__))

/** Recoverable operational failure; prints at every level. */
#define lf_error(...)                                                    \
    ::lf::detail::emit(::lf::LogLevel::Error, "error",                   \
        ::lf::detail::formatString(__VA_ARGS__))

#define lf_warn(...)                                                     \
    ::lf::detail::emit(::lf::LogLevel::Warn, "warn",                     \
        ::lf::detail::formatString(__VA_ARGS__))

#define lf_inform(...)                                                   \
    ::lf::detail::emit(::lf::LogLevel::Info, "info",                     \
        ::lf::detail::formatString(__VA_ARGS__))

/** Chatty diagnostics; needs LF_LOG=debug (or setLogLevel). */
#define lf_debug(...)                                                    \
    ::lf::detail::emit(::lf::LogLevel::Debug, "debug",                   \
        ::lf::detail::formatString(__VA_ARGS__))

#endif // LF_COMMON_LOGGING_HH
