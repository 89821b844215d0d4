// Serial FFT kernel tests: correctness against a naive DFT, round trips,
// Bluestein lengths, strided execution, Parseval's identity, and bitwise
// equality with the textbook radix-2 loop.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <vector>

#include "base/rng.hpp"
#include "fft/serial_fft.hpp"
#include "test_env.hpp"

namespace bf = beatnik::fft;
using bf::cplx;

namespace {

std::vector<cplx> random_signal(std::size_t n, std::uint64_t seed) {
    std::vector<cplx> x(n);
    // `seed` is a per-test stream offset from the env-selected base seed.
    beatnik::SplitMix64 rng(beatnik::test::seed() + seed);
    for (auto& v : x) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    return x;
}

std::vector<cplx> naive_dft(const std::vector<cplx>& x) {
    const std::size_t n = x.size();
    std::vector<cplx> out(n);
    for (std::size_t k = 0; k < n; ++k) {
        cplx acc{0.0, 0.0};
        for (std::size_t m = 0; m < n; ++m) {
            double angle = -2.0 * std::numbers::pi * static_cast<double>(k * m % n) /
                           static_cast<double>(n);
            acc += x[m] * cplx{std::cos(angle), std::sin(angle)};
        }
        out[k] = acc;
    }
    return out;
}

double max_err(const std::vector<cplx>& a, const std::vector<cplx>& b) {
    double e = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) e = std::max(e, std::abs(a[i] - b[i]));
    return e;
}

/// The textbook transform the fast kernel must reproduce bit for bit:
/// bit reversal, then std::complex butterflies reading the length-n
/// twiddle table at stride n/len (conjugated for the inverse); Bluestein
/// on top of it for other lengths; one scaling pass for the inverse.
class TextbookFFT {
public:
    explicit TextbookFFT(std::size_t n) : n_(n) {
        conv_n_ = bf::is_pow2(n) ? n : bf::next_pow2(2 * n - 1);
        std::size_t log2n = 0;
        while ((std::size_t{1} << log2n) < conv_n_) ++log2n;
        bitrev_.resize(conv_n_);
        for (std::size_t i = 0; i < conv_n_; ++i) {
            std::size_t r = 0;
            for (std::size_t b = 0; b < log2n; ++b) {
                if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (log2n - 1 - b);
            }
            bitrev_[i] = r;
        }
        twiddle_.resize(conv_n_ / 2);
        for (std::size_t k = 0; k < conv_n_ / 2; ++k) {
            double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                           static_cast<double>(conv_n_);
            twiddle_[k] = {std::cos(angle), std::sin(angle)};
        }
        if (conv_n_ == n_) return;
        chirp_.resize(n_);
        for (std::size_t k = 0; k < n_; ++k) {
            double kk = static_cast<double>((k * k) % (2 * n_));
            double angle = -std::numbers::pi * kk / static_cast<double>(n_);
            chirp_[k] = {std::cos(angle), std::sin(angle)};
        }
        chirp_fft_.assign(conv_n_, cplx{0.0, 0.0});
        for (std::size_t k = 0; k < n_; ++k) {
            chirp_fft_[k] = std::conj(chirp_[k]);
            if (k != 0) chirp_fft_[conv_n_ - k] = std::conj(chirp_[k]);
        }
        radix2(chirp_fft_.data(), false);
    }

    void transform(cplx* data, std::size_t stride, bool inverse) const {
        if (conv_n_ == n_) {
            std::vector<cplx> tmp(n_);
            for (std::size_t i = 0; i < n_; ++i) tmp[i] = data[i * stride];
            radix2(tmp.data(), inverse);
            for (std::size_t i = 0; i < n_; ++i) data[i * stride] = tmp[i];
        } else {
            std::vector<cplx> a(conv_n_, cplx{0.0, 0.0});
            for (std::size_t m = 0; m < n_; ++m) {
                cplx c = inverse ? std::conj(chirp_[m]) : chirp_[m];
                a[m] = data[m * stride] * c;
            }
            radix2(a.data(), false);
            for (std::size_t k = 0; k < conv_n_; ++k) {
                a[k] *= inverse ? std::conj(chirp_fft_[k]) : chirp_fft_[k];
            }
            radix2(a.data(), true);
            const double scale = 1.0 / static_cast<double>(conv_n_);
            for (std::size_t k = 0; k < n_; ++k) {
                cplx c = inverse ? std::conj(chirp_[k]) : chirp_[k];
                data[k * stride] = a[k] * scale * c;
            }
        }
        if (!inverse) return;
        const double scale = 1.0 / static_cast<double>(n_);
        for (std::size_t i = 0; i < n_; ++i) data[i * stride] *= scale;
    }

private:
    void radix2(cplx* data, bool inverse_sign) const {
        const std::size_t n = conv_n_;
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t j = bitrev_[i];
            if (i < j) std::swap(data[i], data[j]);
        }
        for (std::size_t len = 2; len <= n; len <<= 1) {
            const std::size_t half = len >> 1;
            const std::size_t tstep = n / len;
            for (std::size_t start = 0; start < n; start += len) {
                for (std::size_t k = 0; k < half; ++k) {
                    cplx w = twiddle_[k * tstep];
                    if (inverse_sign) w = std::conj(w);
                    cplx u = data[start + k];
                    cplx v = data[start + k + half] * w;
                    data[start + k] = u + v;
                    data[start + k + half] = u - v;
                }
            }
        }
    }

    std::size_t n_;
    std::size_t conv_n_;
    std::vector<std::size_t> bitrev_;
    std::vector<cplx> twiddle_;
    std::vector<cplx> chirp_;
    std::vector<cplx> chirp_fft_;
};

/// Index of the first element whose bytes differ, or -1.
long first_byte_difference(const std::vector<cplx>& a, const std::vector<cplx>& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a[i], &b[i], sizeof(cplx)) != 0) return static_cast<long>(i);
    }
    return -1;
}

/// memcmp the plan against the textbook transform for both directions, at
/// element strides 1 and 3, one line at a time (*_strided) and as a batch
/// of three lines (*_lines: consecutive lines at stride 1, interleaved
/// lines at stride 3). Gaps between strided elements must stay untouched.
void expect_bitwise_textbook(std::size_t n) {
    const bf::SerialFFT1D plan(n);
    const TextbookFFT ref(n);
    constexpr std::size_t kLines = 3;
    for (bool inverse : {false, true}) {
        for (std::size_t stride : {std::size_t{1}, std::size_t{3}}) {
            const std::size_t line_stride = stride == 1 ? n : 1;
            const auto input = random_signal(n * stride * kLines, 61 + n);
            auto want = input;
            for (std::size_t l = 0; l < kLines; ++l) {
                ref.transform(want.data() + l * line_stride, stride, inverse);
            }

            auto one_by_one = input;
            for (std::size_t l = 0; l < kLines; ++l) {
                cplx* line = one_by_one.data() + l * line_stride;
                inverse ? plan.inverse_strided(line, stride) : plan.forward_strided(line, stride);
            }
            EXPECT_EQ(first_byte_difference(one_by_one, want), -1)
                << "*_strided: n=" << n << " stride=" << stride << " inverse=" << inverse;

            auto batched = input;
            std::vector<cplx> scratch(plan.scratch_size(stride));
            if (inverse) {
                plan.inverse_lines(batched.data(), kLines, line_stride, stride, scratch);
            } else {
                plan.forward_lines(batched.data(), kLines, line_stride, stride, scratch);
            }
            EXPECT_EQ(first_byte_difference(batched, want), -1)
                << "*_lines: n=" << n << " stride=" << stride << " inverse=" << inverse;
        }
    }
}

class FFTLengths : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Lengths, FFTLengths,
                         ::testing::Values<std::size_t>(1, 2, 4, 8, 64, 256,   // radix-2
                                                        3, 5, 6, 12, 76, 100, 243),
                         ::testing::PrintToStringParamName());

TEST_P(FFTLengths, MatchesNaiveDFT) {
    const std::size_t n = GetParam();
    auto x = random_signal(n, 17);
    auto expected = naive_dft(x);
    bf::SerialFFT1D plan(n);
    plan.forward(x.data());
    EXPECT_LT(max_err(x, expected), 1e-9 * static_cast<double>(n)) << "n=" << n;
}

TEST_P(FFTLengths, BitwiseMatchesTextbookLoop) { expect_bitwise_textbook(GetParam()); }

TEST(SerialFFT, PowersOfTwoBitwiseMatchTextbookLoop) {
    for (std::size_t n = 1; n <= (std::size_t{1} << 14); n <<= 1) {
        SCOPED_TRACE(n);
        expect_bitwise_textbook(n);
    }
}

TEST_P(FFTLengths, InverseRoundTripIsIdentity) {
    const std::size_t n = GetParam();
    auto x = random_signal(n, 29);
    auto original = x;
    bf::SerialFFT1D plan(n);
    plan.forward(x.data());
    plan.inverse(x.data());
    EXPECT_LT(max_err(x, original), 1e-10 * static_cast<double>(n + 1));
}

TEST_P(FFTLengths, ParsevalHolds) {
    const std::size_t n = GetParam();
    auto x = random_signal(n, 31);
    double time_energy = 0.0;
    for (const auto& v : x) time_energy += std::norm(v);
    bf::SerialFFT1D plan(n);
    plan.forward(x.data());
    double freq_energy = 0.0;
    for (const auto& v : x) freq_energy += std::norm(v);
    EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
                1e-8 * time_energy * static_cast<double>(n));
}

TEST(SerialFFT, SingleToneLandsInSingleBin) {
    constexpr std::size_t n = 64;
    constexpr std::size_t mode = 5;
    std::vector<cplx> x(n);
    for (std::size_t m = 0; m < n; ++m) {
        double angle = 2.0 * std::numbers::pi * static_cast<double>(mode * m) / n;
        x[m] = {std::cos(angle), std::sin(angle)};
    }
    bf::SerialFFT1D plan(n);
    plan.forward(x.data());
    for (std::size_t k = 0; k < n; ++k) {
        if (k == mode) {
            EXPECT_NEAR(x[k].real(), static_cast<double>(n), 1e-9);
            EXPECT_NEAR(x[k].imag(), 0.0, 1e-9);
        } else {
            EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-9);
        }
    }
}

TEST(SerialFFT, LinearityProperty) {
    constexpr std::size_t n = 100; // exercises Bluestein
    auto x = random_signal(n, 41);
    auto y = random_signal(n, 43);
    const cplx alpha{0.7, -0.3};
    std::vector<cplx> combo(n);
    for (std::size_t i = 0; i < n; ++i) combo[i] = alpha * x[i] + y[i];
    bf::SerialFFT1D plan(n);
    plan.forward(x.data());
    plan.forward(y.data());
    plan.forward(combo.data());
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_LT(std::abs(combo[i] - (alpha * x[i] + y[i])), 1e-8);
    }
}

TEST(SerialFFT, StridedMatchesContiguous) {
    constexpr std::size_t n = 128;
    constexpr std::size_t stride = 7;
    auto contiguous = random_signal(n, 53);
    std::vector<cplx> strided(n * stride, cplx{-1.0, -1.0});
    for (std::size_t i = 0; i < n; ++i) strided[i * stride] = contiguous[i];

    bf::SerialFFT1D plan(n);
    plan.forward(contiguous.data());
    plan.forward_strided(strided.data(), stride);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_LT(std::abs(strided[i * stride] - contiguous[i]), 1e-10);
        // Gaps untouched.
        if (i + 1 < n) {
            EXPECT_EQ(strided[i * stride + 1], (cplx{-1.0, -1.0}));
        }
    }
}

TEST(SerialFFT, StridedInverseRoundTrip) {
    constexpr std::size_t n = 76; // Beatnik's 76x76 strong-scaling block, Bluestein
    constexpr std::size_t stride = 3;
    std::vector<cplx> data(n * stride);
    beatnik::SplitMix64 rng(59);
    for (auto& v : data) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    auto original = data;
    bf::SerialFFT1D plan(n);
    plan.forward_strided(data.data(), stride);
    plan.inverse_strided(data.data(), stride);
    for (std::size_t i = 0; i < n * stride; ++i) {
        EXPECT_LT(std::abs(data[i] - original[i]), 1e-10);
    }
}

TEST(SerialFFT, PlanCacheReturnsSameInstance) {
    const auto& a = bf::plan_for(64);
    const auto& b = bf::plan_for(64);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.size(), 64u);
}

TEST(SerialFFT, FlopsEstimatePositiveAndMonotonic) {
    bf::SerialFFT1D small(64), large(4096), odd(77);
    EXPECT_GT(small.flops(), 0.0);
    EXPECT_GT(large.flops(), small.flops());
    EXPECT_GT(odd.flops(), 0.0);
}

TEST(SerialFFT, RejectsZeroLength) { EXPECT_THROW(bf::SerialFFT1D(0), beatnik::Error); }

} // namespace
