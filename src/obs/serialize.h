/**
 * @file
 * Run-artifact serialization: a counter snapshot plus trace window
 * packed into the compact binary `.mjt` format, or rendered as Chrome
 * `trace_event` JSON (load chrome://tracing or ui.perfetto.dev).
 *
 * Everything here works on std::string buffers — file I/O stays in the
 * tools layer, keeping this module free of stdio (MJ-FRK) and easy to
 * golden-test byte-for-byte. The binary encoding goes field by field
 * through common/bytes.h (never memcpy of structs), so the bytes are
 * identical across hosts and compilers.
 */

#ifndef MINJIE_OBS_SERIALIZE_H
#define MINJIE_OBS_SERIALIZE_H

#include <string>
#include <tuple>

#include "common/bytes.h"
#include "obs/counter.h"
#include "obs/trace.h"

namespace minjie::obs {

/** Everything one recorded run produces. */
struct RunArtifact
{
    std::string runLabel;      ///< workload/config tag, e.g. "coremark@nh"
    CounterSnapshot counters;  ///< flattened counter tree at end of run
    std::vector<TraceEvent> events; ///< trace window, oldest first

    bool
    operator==(const RunArtifact &o) const
    {
        auto key = [](const TraceEvent &e) {
            return std::tuple(e.cycle, e.pc, e.arg0, e.arg1, e.kind,
                              e.hart, e.aux);
        };
        if (runLabel != o.runLabel || !(counters == o.counters) ||
            events.size() != o.events.size())
            return false;
        for (size_t i = 0; i < events.size(); ++i)
            if (key(events[i]) != key(o.events[i]))
                return false;
        return true;
    }
};

/**
 * The one counter-map encoding, shared by `.mjt` and the sample
 * engine's slice blobs: a u32 count, then per key in ascending order a
 * u32-length-prefixed key and a u64 value.
 */
void writeCounters(ByteWriter &w, const CounterSnapshot &counters);

/** Decode a counter map into @p out. Keys must be strictly ascending,
 *  as written. @return false, with @p r failed, on malformed input. */
bool readCounters(ByteReader &r, CounterSnapshot &out);

/** Encode to the binary .mjt format (magic "MJT1"). */
std::string serializeMjt(const RunArtifact &artifact);

/** Decode a .mjt buffer; returns false on malformed input. */
bool parseMjt(const std::string &bytes, RunArtifact &out);

/**
 * Chrome trace_event JSON: counters become a metadata record, events
 * become instant events with ts = cycle and tid = hart.
 */
std::string toChromeJson(const RunArtifact &artifact);

} // namespace minjie::obs

#endif // MINJIE_OBS_SERIALIZE_H
