#include "obs/serialize.h"

#include <cstring>

#include "common/jsonw.h"

namespace minjie::obs {

namespace {

constexpr char kMagic[4] = {'M', 'J', 'T', '1'};
constexpr uint32_t kVersion = 1;

} // namespace

void
writeCounters(ByteWriter &w, const CounterSnapshot &counters)
{
    w.u32(static_cast<uint32_t>(counters.values.size()));
    for (const auto &[k, v] : counters.values) {
        w.str(k);
        w.u64(v);
    }
}

bool
readCounters(ByteReader &r, CounterSnapshot &out)
{
    out.values.clear();
    uint32_t n = r.u32();
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
        std::string k = r.str();
        uint64_t v = r.u64();
        // Keys were written in map order: anything else is corrupt.
        if (!out.values.empty() && k <= out.values.rbegin()->first)
            r.fail();
        else
            out.values.emplace_hint(out.values.end(), std::move(k), v);
    }
    return r.ok();
}

std::string
serializeMjt(const RunArtifact &artifact)
{
    std::vector<uint8_t> out;
    ByteWriter w(out);
    w.bytes(kMagic, sizeof(kMagic));
    w.u32(kVersion);
    w.str(artifact.runLabel);
    writeCounters(w, artifact.counters);

    w.u32(static_cast<uint32_t>(artifact.events.size()));
    for (const auto &e : artifact.events) {
        w.u64(e.cycle);
        w.u64(e.pc);
        w.u64(e.arg0);
        w.u32(e.arg1);
        w.u8(static_cast<uint8_t>(e.kind));
        w.u8(e.hart);
        w.u16(e.aux);
    }
    return std::string(out.begin(), out.end());
}

bool
parseMjt(const std::string &bytes, RunArtifact &out)
{
    ByteReader r(bytes);
    const uint8_t *magic = r.span(sizeof(kMagic));
    if (!magic || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 ||
        r.u32() != kVersion)
        return false;

    RunArtifact a;
    a.runLabel = r.str();
    if (!readCounters(r, a.counters))
        return false;

    uint32_t nEvents = r.u32();
    for (uint32_t i = 0; i < nEvents && r.ok(); ++i) {
        TraceEvent e;
        e.cycle = r.u64();
        e.pc = r.u64();
        e.arg0 = r.u64();
        e.arg1 = r.u32();
        e.kind = static_cast<Ev>(r.u8());
        e.hart = r.u8();
        e.aux = r.u16();
        a.events.push_back(e);
    }
    if (!r.done())
        return false;
    out = std::move(a);
    return true;
}

std::string
toChromeJson(const RunArtifact &artifact)
{
    JsonWriter jw;
    jw.beginObject();
    jw.key("displayTimeUnit").value("ns");
    jw.key("otherData").beginObject();
    jw.key("run").value(artifact.runLabel);
    for (const auto &[k, v] : artifact.counters.values)
        jw.key(k).value(v);
    jw.endObject();
    jw.key("traceEvents").beginArray();
    for (const auto &e : artifact.events) {
        jw.beginObject();
        jw.key("name").value(evName(e.kind));
        jw.key("ph").value("i");
        jw.key("s").value("t");
        jw.key("ts").value(e.cycle);
        jw.key("pid").value(1);
        jw.key("tid").value(static_cast<unsigned>(e.hart));
        jw.key("args").beginObject();
        jw.key("pc").hex(e.pc);
        jw.key("arg0").hex(e.arg0);
        jw.key("arg1").value(static_cast<uint64_t>(e.arg1));
        jw.key("aux").value(static_cast<uint64_t>(e.aux));
        jw.endObject();
        jw.endObject();
    }
    jw.endArray();
    jw.endObject();
    return jw.str();
}

} // namespace minjie::obs
