/**
 * @file
 * Strict number parsing for the command-line tools: the whole text
 * must be an unsigned number, so "abc", "10x", "" or "-1" is an error
 * rather than a silent 0 or a wrapped value.
 */

#ifndef MINJIE_COMMON_PARSE_H
#define MINJIE_COMMON_PARSE_H

#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace minjie {

/** A whole-string unsigned number (decimal, 0x hex or 0 octal). */
inline bool
parseU64(const char *text, uint64_t &out)
{
    if (*text < '0' || *text > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text, &end, 0);
    return *end == '\0' && errno == 0;
}

} // namespace minjie

#endif // MINJIE_COMMON_PARSE_H
