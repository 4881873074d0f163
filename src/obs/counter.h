/**
 * @file
 * Hierarchical performance-counter tree (the observability layer's
 * metrics half; ROADMAP "tracing, metrics, profiling hooks").
 *
 * A CounterGroup is a named tree node holding counters and child
 * groups; flattening produces a CounterSnapshot keyed by dotted paths
 * ("core0.frontend.fetch_stall_cycles"). Snapshots are deterministic:
 * both the tree and the snapshot are sorted containers, so
 * serialization is byte-stable across hosts and runs, and merge() is
 * a commutative per-key sum, so sharded campaign workers aggregate
 * worker-count-invariantly.
 *
 * The tree is populated from the simulators' existing stats structs at
 * snapshot points (see collect.h), never from hot loops, so the layer
 * costs nothing between snapshots.
 */

#ifndef MINJIE_OBS_COUNTER_H
#define MINJIE_OBS_COUNTER_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace minjie::obs {

/** Flattened, order-stable view of a counter tree. */
class CounterSnapshot
{
  public:
    /** Dotted path -> value; std::map keeps serialization byte-stable. */
    std::map<std::string, uint64_t> values;

    void
    set(const std::string &path, uint64_t v)
    {
        values[path] = v;
    }

    void
    add(const std::string &path, uint64_t v)
    {
        values[path] += v;
    }

    uint64_t
    get(const std::string &path) const
    {
        auto it = values.find(path);
        return it == values.end() ? 0 : it->second;
    }

    bool has(const std::string &path) const
    {
        return values.count(path) != 0;
    }

    /** Per-key sum; commutative and associative, so aggregating shard
     *  results in any grouping yields identical totals. */
    void
    merge(const CounterSnapshot &other)
    {
        for (const auto &[k, v] : other.values)
            values[k] += v;
    }

    /** Per-key `values[k] += other[k] * scale`: the integer-weighted
     *  merge the sampled-simulation reduction uses. Scaling every key
     *  by the same factor preserves any exact-sum relation between
     *  keys (sums are linear), so a weighted top-down stack still
     *  satisfies sumsExactly(). */
    void
    mergeScaled(const CounterSnapshot &other, uint64_t scale)
    {
        for (const auto &[k, v] : other.values)
            values[k] += v * scale;
    }

    /** this - earlier, clamped at zero per key (monotonic counters). */
    CounterSnapshot delta(const CounterSnapshot &earlier) const;

    bool
    operator==(const CounterSnapshot &o) const
    {
        return values == o.values;
    }

    /** Compact JSON object {"path":value,...} in key order. */
    std::string toJson() const;
};

/** One node of the counter tree. */
class CounterGroup
{
  public:
    explicit CounterGroup(std::string name = "") : name_(std::move(name))
    {
    }

    const std::string &name() const { return name_; }

    /** Fetch-or-create a child group. */
    CounterGroup &group(const std::string &child);

    /** Fetch-or-create a counter; returns a mutable reference. */
    uint64_t &counter(const std::string &counterName);

    void set(const std::string &c, uint64_t v) { counter(c) = v; }
    void add(const std::string &c, uint64_t v) { counter(c) += v; }

    /** Flatten this subtree into dotted-path entries under @p prefix
     *  (the group's own name is used when @p prefix is empty). */
    void flattenInto(CounterSnapshot &out, const std::string &prefix)
        const;

    CounterSnapshot
    snapshot() const
    {
        CounterSnapshot s;
        flattenInto(s, name_);
        return s;
    }

    void
    clear()
    {
        counters_.clear();
        children_.clear();
    }

    const std::map<std::string, uint64_t> &counters() const
    {
        return counters_;
    }

  private:
    std::string name_;
    std::map<std::string, uint64_t> counters_;
    std::map<std::string, std::unique_ptr<CounterGroup>> children_;
};

} // namespace minjie::obs

#endif // MINJIE_OBS_COUNTER_H
