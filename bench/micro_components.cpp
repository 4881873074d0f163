/**
 * @file
 * Component microbenchmarks (google-benchmark): the per-operation costs
 * behind the paper's headline numbers — soft-float vs host FP (the
 * SPECfp gap of Figure 8), decode vs cached-decode (the uop cache),
 * TAGE lookup/update, and cache-hierarchy hit/miss paths.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "fp/ops.h"
#include "isa/decode.h"
#include "isa/encode.h"
#include "uarch/hierarchy.h"
#include "uarch/predictors.h"

using namespace minjie;

namespace {

/**
 * 256 normal doubles as IEEE bit patterns, exponents within 2^+-32, so
 * every sum and product of two of them is normal too. The fp benchmarks
 * cycle through them: feeding results back drifts the operands into
 * NaNs and denormals and times the host's slow assists instead.
 */
std::vector<uint64_t>
normalOperands(uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint64_t> v(256);
    for (auto &x : v) {
        uint64_t exp = 1023 - 32 + rng.below(64);
        x = (rng.next() & 0x800fffffffffffffULL) | (exp << 52);
    }
    return v;
}

void
runFp(benchmark::State &state, isa::Op op, fp::FpBackend backend)
{
    const std::vector<uint64_t> v = normalOperands(1);
    size_t i = 0;
    for (auto _ : state) {
        auto out = fp::fpExec(op, v[i & 255], v[(i + 1) & 255], 0, 0,
                              backend);
        benchmark::DoNotOptimize(out.value);
        ++i;
    }
}

void
BM_SoftFloatAdd(benchmark::State &state)
{
    runFp(state, isa::Op::FaddD, fp::FpBackend::Soft);
}
BENCHMARK(BM_SoftFloatAdd);

void
BM_HostFloatAdd(benchmark::State &state)
{
    runFp(state, isa::Op::FaddD, fp::FpBackend::Host);
}
BENCHMARK(BM_HostFloatAdd);

void
BM_SoftFloatMul(benchmark::State &state)
{
    runFp(state, isa::Op::FmulD, fp::FpBackend::Soft);
}
BENCHMARK(BM_SoftFloatMul);

void
BM_HostFloatMul(benchmark::State &state)
{
    runFp(state, isa::Op::FmulD, fp::FpBackend::Host);
}
BENCHMARK(BM_HostFloatMul);

void
BM_Decode32(benchmark::State &state)
{
    // A mix of realistic encodings.
    std::vector<uint32_t> words;
    Rng rng(3);
    for (int i = 0; i < 256; ++i) {
        isa::DecodedInst di;
        di.op = static_cast<isa::Op>(
            1 + rng.below(static_cast<uint64_t>(isa::Op::NumOps) - 1));
        di.rd = static_cast<uint8_t>(rng.below(32));
        di.rs1 = static_cast<uint8_t>(rng.below(32));
        di.rs2 = static_cast<uint8_t>(rng.below(32));
        uint32_t w = isa::encode(di);
        words.push_back(w ? w : 0x00000013);
    }
    size_t i = 0;
    for (auto _ : state) {
        auto di = isa::decode32(words[i++ & 255]);
        benchmark::DoNotOptimize(di.op);
    }
}
BENCHMARK(BM_Decode32);

void
BM_TagePredictUpdate(benchmark::State &state)
{
    uarch::Tage tage;
    Rng rng(4);
    Addr pc = 0x80000000;
    for (auto _ : state) {
        auto p = tage.predict(pc);
        bool taken = rng.chance(70);
        tage.pushHistory(taken);
        tage.update(p, taken);
        pc = 0x80000000 + (rng.below(512) << 2);
        benchmark::DoNotOptimize(p.taken);
    }
}
BENCHMARK(BM_TagePredictUpdate);

void
BM_CacheHit(benchmark::State &state)
{
    uarch::MemCfg cfg;
    uarch::MemHierarchy mem(cfg, 1);
    mem.load(0, 0x80001000, 0x80001000, 0); // warm
    Cycle now = 10;
    for (auto _ : state) {
        unsigned lat = mem.load(0, 0x80001000, 0x80001000, now++);
        benchmark::DoNotOptimize(lat);
    }
}
BENCHMARK(BM_CacheHit);

void
BM_CacheMissToDram(benchmark::State &state)
{
    uarch::MemCfg cfg;
    cfg.l1d.sizeBytes = 4096; // tiny: every new line misses everywhere
    cfg.l2.sizeBytes = 8192;
    uarch::MemHierarchy mem(cfg, 1);
    Addr a = 0x80000000;
    Cycle now = 0;
    for (auto _ : state) {
        unsigned lat = mem.load(0, a, a, now++);
        benchmark::DoNotOptimize(lat);
        a += 64 * 1024; // always a fresh set of lines
        if (a > 0x90000000)
            a = 0x80000000;
    }
}
BENCHMARK(BM_CacheMissToDram);

} // namespace

BENCHMARK_MAIN();
