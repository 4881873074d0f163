#include "common/log.h"

#include <cstdlib>

namespace minjie {

Logger &
Logger::instance()
{
    static Logger logger;
    return logger;
}

void
Logger::setOutputFile(const std::string &path)
{
    if (out_ && out_ != stderr)
        std::fclose(out_);
    out_ = path.empty() ? nullptr : std::fopen(path.c_str(), "w");
}

void
Logger::log(LogLevel level, const char *fmt, ...)
{
    if (level < level_)
        return;
    static const char *names[] = {"DEBUG", "INFO", "WARN", "ERROR"};

    // Format the whole line first and emit it with ONE stdio call: pool
    // workers sharing stderr then interleave whole lines, never fragments.
    char body[960];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(body, sizeof(body), fmt, args);
    va_end(args);

    FILE *out = out_ ? out_ : stderr;
    std::fprintf(out, "[%s] %s\n", names[static_cast<int>(level)], body);
    // stderr is unbuffered; a file sink is not. Flush it so no bytes
    // pend across a LightSSS fork(), where they would be written by
    // both the parent and the snapshot child (lint MJ-FRK2-001).
    if (out != stderr)
        std::fflush(out);
}

void
panic(const char *fmt, ...)
{
    std::fprintf(stderr, "panic: ");
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fputc('\n', stderr);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::fprintf(stderr, "fatal: ");
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fputc('\n', stderr);
    std::exit(1);
}

} // namespace minjie
