/**
 * @file
 * Minimal leveled logging.
 *
 * Debug-mode RTL simulation in the paper enables waveform/log output at a
 * large performance cost; our analogue is the Logger debug level, which
 * LightSSS replay turns on when reproducing a failure window.
 */

#ifndef MINJIE_COMMON_LOG_H
#define MINJIE_COMMON_LOG_H

#include <cstdarg>
#include <cstdio>
#include <string>

namespace minjie {

/** Severity levels, lowest to highest. */
enum class LogLevel { Debug, Info, Warn, Error, Off };

/**
 * Process-wide logger. Debug output is what "debug mode" means for the
 * software simulator: when enabled, per-cycle/per-commit trace lines are
 * emitted, which measurably slows simulation (cf. paper Section II-D).
 */
class Logger
{
  public:
    static Logger &instance();

    void setLevel(LogLevel level) { level_ = level; }
    LogLevel level() const { return level_; }
    bool debugEnabled() const { return level_ <= LogLevel::Debug; }

    /** Redirect output to a file (empty path restores stderr). */
    void setOutputFile(const std::string &path);

    void log(LogLevel level, const char *fmt, ...)
        __attribute__((format(printf, 3, 4)));

  private:
    Logger() = default;
    LogLevel level_ = LogLevel::Warn;
    FILE *out_ = nullptr;
};

#define MJ_DEBUG(...) \
    do { \
        auto &mj_logger = ::minjie::Logger::instance(); \
        if (mj_logger.debugEnabled()) \
            mj_logger.log(::minjie::LogLevel::Debug, __VA_ARGS__); \
    } while (0)

#define MJ_INFO(...)  ::minjie::Logger::instance().log(::minjie::LogLevel::Info, __VA_ARGS__)
#define MJ_WARN(...)  ::minjie::Logger::instance().log(::minjie::LogLevel::Warn, __VA_ARGS__)
#define MJ_ERROR(...) ::minjie::Logger::instance().log(::minjie::LogLevel::Error, __VA_ARGS__)

/** Abort with a message: simulator-internal invariant violation. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit with a message: user/configuration error. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace minjie

#endif // MINJIE_COMMON_LOG_H
