#include "obs/counter.h"

#include "common/jsonw.h"

namespace minjie::obs {

CounterSnapshot
CounterSnapshot::delta(const CounterSnapshot &earlier) const
{
    CounterSnapshot d;
    for (const auto &[k, v] : values) {
        uint64_t before = earlier.get(k);
        d.values[k] = v >= before ? v - before : 0;
    }
    return d;
}

std::string
CounterSnapshot::toJson() const
{
    JsonWriter jw;
    jw.beginObject();
    for (const auto &[k, v] : values)
        jw.key(k).value(v);
    jw.endObject();
    return jw.str();
}

CounterGroup &
CounterGroup::group(const std::string &child)
{
    auto &slot = children_[child];
    if (!slot)
        slot = std::make_unique<CounterGroup>(child);
    return *slot;
}

uint64_t &
CounterGroup::counter(const std::string &counterName)
{
    return counters_[counterName];
}

void
CounterGroup::flattenInto(CounterSnapshot &out,
                          const std::string &prefix) const
{
    for (const auto &[k, v] : counters_)
        out.values[prefix.empty() ? k : prefix + "." + k] += v;
    for (const auto &[k, child] : children_)
        child->flattenInto(out, prefix.empty() ? k : prefix + "." + k);
}

} // namespace minjie::obs
