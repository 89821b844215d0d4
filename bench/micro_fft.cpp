/// \file micro_fft.cpp
/// \brief Serial FFT kernel microbenchmarks (google-benchmark).
///
/// These measure the host-machine kernel rates that anchor the netsim
/// compute model (MachineModel::flops_rate is the GPU-side counterpart;
/// EXPERIMENTS.md discusses the mapping).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "base/rng.hpp"
#include "fft/serial_fft.hpp"

namespace bf = beatnik::fft;

namespace {

std::vector<bf::cplx> signal(std::size_t n) {
    std::vector<bf::cplx> x(n);
    beatnik::SplitMix64 rng(7);
    for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    return x;
}

/// Every benchmark repeats its transforms on one buffer, so each forward
/// is paired with its (1/n-scaled) inverse to keep the values bounded —
/// unpaired unscaled forwards grow by ~sqrt(n) per call and overflow to
/// inf/NaN, and the timings would then measure non-finite arithmetic.
/// Refuse the record if that ever happens anyway.
void require_finite(benchmark::State& state, const std::vector<bf::cplx>& x) {
    const bool finite = std::all_of(x.begin(), x.end(), [](const bf::cplx& v) {
        return std::isfinite(v.real()) && std::isfinite(v.imag());
    });
    if (!finite) state.SkipWithError("transform output is not finite");
}

void BM_SerialFFTPow2(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    bf::SerialFFT1D plan(n);
    auto x = signal(n);
    for (auto _ : state) {
        plan.forward(x.data());
        plan.inverse(x.data());
        benchmark::DoNotOptimize(x.data());
    }
    require_finite(state, x);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2 * n));
    state.counters["flops_rate"] =
        benchmark::Counter(2.0 * plan.flops() * static_cast<double>(state.iterations()),
                           benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SerialFFTPow2)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_SerialFFTBluestein(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    bf::SerialFFT1D plan(n);
    auto x = signal(n);
    for (auto _ : state) {
        plan.forward(x.data());
        plan.inverse(x.data());
        benchmark::DoNotOptimize(x.data());
    }
    require_finite(state, x);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2 * n));
}
BENCHMARK(BM_SerialFFTBluestein)->Arg(243)->Arg(768)->Arg(4864);

void BM_SerialFFTStrided(benchmark::State& state) {
    // The reorder-knob tradeoff: strided lines pay a gather/scatter.
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto stride = static_cast<std::size_t>(state.range(1));
    bf::SerialFFT1D plan(n);
    auto x = signal(n * stride);
    for (auto _ : state) {
        plan.forward_strided(x.data(), stride);
        plan.inverse_strided(x.data(), stride);
        benchmark::DoNotOptimize(x.data());
    }
    require_finite(state, x);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2 * n));
}
BENCHMARK(BM_SerialFFTStrided)->Args({1024, 1})->Args({1024, 64})->Args({4096, 64});

void BM_SerialFFTLines(benchmark::State& state) {
    // One distributed-FFT stage's worth of lines as one batched call:
    // 64 lines of 256 points, forward then inverse. Arg 0 lays the lines
    // out contiguously (reorder on); arg 1 interleaves them, so each line
    // is strided by the line count (reorder off, gathered into scratch).
    constexpr std::size_t n = 256;
    constexpr std::size_t count = 64;
    const bool strided = state.range(0) != 0;
    const std::size_t line_stride = strided ? 1 : n;
    const std::size_t elem_stride = strided ? count : 1;
    bf::SerialFFT1D plan(n);
    auto x = signal(n * count);
    std::vector<bf::cplx> scratch(plan.scratch_size(elem_stride));
    for (auto _ : state) {
        plan.forward_lines(x.data(), count, line_stride, elem_stride, scratch);
        plan.inverse_lines(x.data(), count, line_stride, elem_stride, scratch);
        benchmark::DoNotOptimize(x.data());
    }
    require_finite(state, x);
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2 * n * count));
}
BENCHMARK(BM_SerialFFTLines)->ArgName("strided")->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
