/// \file micro_fft.cpp
/// \brief Serial FFT kernel microbenchmarks (google-benchmark).
///
/// These measure the host-machine kernel rates that anchor the netsim
/// compute model (MachineModel::flops_rate is the GPU-side counterpart;
/// EXPERIMENTS.md discusses the mapping).
#include <benchmark/benchmark.h>

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

void BM_SerialFFTPow2(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    bf::SerialFFT1D plan(n);
    auto x = signal(n);
    for (auto _ : state) {
        plan.forward(x.data());
        benchmark::DoNotOptimize(x.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
    state.counters["flops_rate"] =
        benchmark::Counter(plan.flops() * static_cast<double>(state.iterations()),
                           benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SerialFFTPow2)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_SerialFFTBluestein(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    bf::SerialFFT1D plan(n);
    auto x = signal(n);
    for (auto _ : state) {
        plan.forward(x.data());
        benchmark::DoNotOptimize(x.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
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
        benchmark::DoNotOptimize(x.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
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
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(2 * n * count));
}
BENCHMARK(BM_SerialFFTLines)->ArgName("strided")->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
