#include "fft/serial_fft.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numbers>

namespace beatnik::fft {

namespace {
constexpr double kPi = std::numbers::pi;

/// x * w as explicit real arithmetic: the products and sums std::complex's
/// operator* forms for finite operands, without its NaN recovery branch.
inline cplx mul(cplx x, double wr, double wi) {
    return {x.real() * wr - x.imag() * wi, x.real() * wi + x.imag() * wr};
}

/// One radix-2 stage of half-span h over n contiguous values (interleaved
/// re/im in \p d); \p wr / \p wi are the stage's h twiddles.
template <bool Scale>
void radix2_stage(double* d, std::size_t n, std::size_t h, const double* wr, const double* wi,
                  double scale) {
    for (std::size_t s = 0; s < n; s += 2 * h) {
        double* p0 = d + 2 * s;
        double* p1 = p0 + 2 * h;
        for (std::size_t k = 0; k < h; ++k) {
            const double ur = p0[2 * k], ui = p0[2 * k + 1];
            const double xr = p1[2 * k], xi = p1[2 * k + 1];
            const double vr = xr * wr[k] - xi * wi[k];
            const double vi = xr * wi[k] + xi * wr[k];
            double y0r = ur + vr, y0i = ui + vi, y1r = ur - vr, y1i = ui - vi;
            if constexpr (Scale) {
                y0r *= scale, y0i *= scale, y1r *= scale, y1i *= scale;
            }
            p0[2 * k] = y0r, p0[2 * k + 1] = y0i;
            p1[2 * k] = y1r, p1[2 * k + 1] = y1i;
        }
    }
}

/// Stages of half-span h and 2h fused into one radix-2² pass: each block
/// of 4h values is read once as quadruples (k, k+h, k+2h, k+3h), which get
/// stage h's butterflies (twiddle k of \p w1) and then stage 2h's
/// (twiddles k and k+h of \p w2) in registers.
template <bool Scale>
void radix2_pair(double* d, std::size_t n, std::size_t h, const double* w1r, const double* w1i,
                 const double* w2r, const double* w2i, double scale) {
    for (std::size_t s = 0; s < n; s += 4 * h) {
        double* p0 = d + 2 * s;
        double* p1 = p0 + 2 * h;
        double* p2 = p1 + 2 * h;
        double* p3 = p2 + 2 * h;
        for (std::size_t k = 0; k < h; ++k) {
            const double x0r = p0[2 * k], x0i = p0[2 * k + 1];
            const double x1r = p1[2 * k], x1i = p1[2 * k + 1];
            const double x2r = p2[2 * k], x2i = p2[2 * k + 1];
            const double x3r = p3[2 * k], x3i = p3[2 * k + 1];
            // Stage h: (x0, x1) and (x2, x3), both on twiddle k.
            const double ar = w1r[k], ai = w1i[k];
            double vr = x1r * ar - x1i * ai;
            double vi = x1r * ai + x1i * ar;
            const double b0r = x0r + vr, b0i = x0i + vi, b1r = x0r - vr, b1i = x0i - vi;
            vr = x3r * ar - x3i * ai;
            vi = x3r * ai + x3i * ar;
            const double b2r = x2r + vr, b2i = x2i + vi, b3r = x2r - vr, b3i = x2i - vi;
            // Stage 2h: (b0, b2) on twiddle k, (b1, b3) on twiddle k + h.
            const double cr = w2r[k], ci = w2i[k];
            vr = b2r * cr - b2i * ci;
            vi = b2r * ci + b2i * cr;
            double y0r = b0r + vr, y0i = b0i + vi, y2r = b0r - vr, y2i = b0i - vi;
            const double er = w2r[k + h], ei = w2i[k + h];
            vr = b3r * er - b3i * ei;
            vi = b3r * ei + b3i * er;
            double y1r = b1r + vr, y1i = b1i + vi, y3r = b1r - vr, y3i = b1i - vi;
            if constexpr (Scale) {
                y0r *= scale, y0i *= scale, y1r *= scale, y1i *= scale;
                y2r *= scale, y2i *= scale, y3r *= scale, y3i *= scale;
            }
            p0[2 * k] = y0r, p0[2 * k + 1] = y0i;
            p1[2 * k] = y1r, p1[2 * k + 1] = y1i;
            p2[2 * k] = y2r, p2[2 * k + 1] = y2i;
            p3[2 * k] = y3r, p3[2 * k + 1] = y3i;
        }
    }
}

} // namespace

SerialFFT1D::Radix2Tables SerialFFT1D::make_tables(std::size_t n) {
    BEATNIK_ASSERT(is_pow2(n));
    BEATNIK_REQUIRE(n - 1 <= std::numeric_limits<std::uint32_t>::max(),
                    "FFT length exceeds the 32-bit bit-reversal table");
    Radix2Tables t;
    t.n = n;
    const int log2n = std::countr_zero(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t r = 0;
        for (int b = 0; b < log2n; ++b) {
            if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (log2n - 1 - b);
        }
        if (i < r) {
            t.swaps.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(r)});
        }
    }
    std::vector<cplx> twiddle(n / 2); // w[k] = exp(-2*pi*i*k/n), k < n/2
    for (std::size_t k = 0; k < n / 2; ++k) {
        double angle = -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n);
        twiddle[k] = {std::cos(angle), std::sin(angle)};
    }
    t.re.assign(n, 0.0);
    t.im.assign(n, 0.0);
    t.im_inv.assign(n, 0.0);
    for (std::size_t h = 1; h < n; h <<= 1) {
        const std::size_t tstep = n / (2 * h);
        for (std::size_t k = 0; k < h; ++k) {
            const cplx w = twiddle[k * tstep];
            t.re[h + k] = w.real();
            t.im[h + k] = w.imag();
            t.im_inv[h + k] = -w.imag();
        }
    }
    return t;
}

template <bool Inverse>
void SerialFFT1D::radix2(const Radix2Tables& t, cplx* x, double scale) {
    const std::size_t n = t.n;
    for (const auto& [i, j] : t.swaps) std::swap(x[i], x[j]);
    const double* wr = t.re.data();
    const double* wi = Inverse ? t.im_inv.data() : t.im.data();
    double* d = reinterpret_cast<double*>(x); // [complex.numbers]: array-compatible
    // An odd stage count runs the first stage alone, the rest in pairs;
    // the inverse scales the outputs of whichever pass is last.
    std::size_t h = 1;
    if (std::countr_zero(n) % 2 == 1) {
        (Inverse && n == 2 ? radix2_stage<true> : radix2_stage<false>)(d, n, 1, wr + 1, wi + 1,
                                                                        scale);
        h = 2;
    }
    for (; h < n; h <<= 2) {
        (Inverse && 4 * h == n ? radix2_pair<true> : radix2_pair<false>)(
            d, n, h, wr + h, wi + h, wr + 2 * h, wi + 2 * h, scale);
    }
    if (Inverse && n == 1) x[0] *= scale;
}

SerialFFT1D::SerialFFT1D(std::size_t n) : n_(n), pow2_(is_pow2(n)) {
    BEATNIK_REQUIRE(n >= 1, "FFT length must be positive");
    if (pow2_) {
        tables_ = make_tables(n);
        return;
    }
    // Bluestein: x_hat[k] = b*[k] * (a (*) b)[k] with a[m] = x[m] b*[m],
    // b[m] = exp(-i*pi*m^2/n), (*) a cyclic convolution of length >= 2n-1.
    const std::size_t conv_n = next_pow2(2 * n - 1);
    tables_ = make_tables(conv_n);
    chirp_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        // k^2 mod 2n keeps the angle argument small for huge n.
        double kk = static_cast<double>((k * k) % (2 * n));
        double angle = -kPi * kk / static_cast<double>(n);
        chirp_[k] = {std::cos(angle), std::sin(angle)};
    }
    // FFT of padded conj(chirp) with wrap-around tail.
    std::vector<cplx> b(conv_n, cplx{0.0, 0.0});
    for (std::size_t k = 0; k < n; ++k) {
        b[k] = std::conj(chirp_[k]);
        if (k != 0) b[conv_n - k] = std::conj(chirp_[k]);
    }
    radix2<false>(tables_, b.data(), 1.0);
    chirp_fft_ = std::move(b);
}

template <bool Inverse>
void SerialFFT1D::bluestein(cplx* data, std::size_t stride, cplx* a) const {
    // The inverse convolves with conj(b): conjugate both chirp factors
    // and the spectrum of b.
    const double sign = Inverse ? -1.0 : 1.0;
    const std::size_t conv_n = tables_.n;
    for (std::size_t m = 0; m < n_; ++m) {
        a[m] = mul(data[m * stride], chirp_[m].real(), sign * chirp_[m].imag());
    }
    std::fill(a + n_, a + conv_n, cplx{0.0, 0.0});
    radix2<false>(tables_, a, 1.0);
    for (std::size_t k = 0; k < conv_n; ++k) {
        a[k] = mul(a[k], chirp_fft_[k].real(), sign * chirp_fft_[k].imag());
    }
    // The unnormalized inverse leaves its outputs scaled by 1/conv_n.
    radix2<true>(tables_, a, 1.0 / static_cast<double>(conv_n));
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (std::size_t k = 0; k < n_; ++k) {
        cplx y = mul(a[k], chirp_[k].real(), sign * chirp_[k].imag());
        if constexpr (Inverse) y *= inv_n;
        data[k * stride] = y;
    }
}

template <bool Inverse>
void SerialFFT1D::lines(cplx* data, std::size_t count, std::size_t line_stride,
                        std::size_t elem_stride, std::span<cplx> scratch) const {
    BEATNIK_REQUIRE(scratch.size() >= scratch_size(elem_stride),
                    "FFT lines: scratch smaller than scratch_size()");
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (std::size_t l = 0; l < count; ++l) {
        cplx* line = data + l * line_stride;
        if (!pow2_) {
            bluestein<Inverse>(line, elem_stride, scratch.data());
        } else if (elem_stride == 1) {
            radix2<Inverse>(tables_, line, inv_n);
        } else {
            // Strided access: gather, transform, scatter. The gather/scatter
            // cost is the honest price of unordered data (the reorder
            // knob's tradeoff).
            cplx* tmp = scratch.data();
            for (std::size_t i = 0; i < n_; ++i) tmp[i] = line[i * elem_stride];
            radix2<Inverse>(tables_, tmp, inv_n);
            for (std::size_t i = 0; i < n_; ++i) line[i * elem_stride] = tmp[i];
        }
    }
}

void SerialFFT1D::forward_lines(cplx* data, std::size_t count, std::size_t line_stride,
                                std::size_t elem_stride, std::span<cplx> scratch) const {
    lines<false>(data, count, line_stride, elem_stride, scratch);
}

void SerialFFT1D::inverse_lines(cplx* data, std::size_t count, std::size_t line_stride,
                                std::size_t elem_stride, std::span<cplx> scratch) const {
    lines<true>(data, count, line_stride, elem_stride, scratch);
}

void SerialFFT1D::forward_strided(cplx* data, std::size_t stride) const {
    std::vector<cplx> scratch(scratch_size(stride));
    forward_lines(data, 1, 0, stride, scratch);
}

void SerialFFT1D::inverse_strided(cplx* data, std::size_t stride) const {
    std::vector<cplx> scratch(scratch_size(stride));
    inverse_lines(data, 1, 0, stride, scratch);
}

double SerialFFT1D::flops() const {
    // ~5 n log2 n for radix-2; Bluestein pays three transforms of conv_n.
    auto r2 = [](std::size_t n) {
        double dn = static_cast<double>(n);
        return 5.0 * dn * std::log2(dn > 1 ? dn : 2.0);
    };
    return pow2_ ? r2(n_) : 3.0 * r2(tables_.n) + 8.0 * static_cast<double>(n_);
}

const SerialFFT1D& plan_for(std::size_t n) {
    static std::mutex mutex;
    static std::map<std::size_t, std::unique_ptr<SerialFFT1D>> cache;
    std::lock_guard lock(mutex);
    auto& slot = cache[n];
    if (!slot) slot = std::make_unique<SerialFFT1D>(n);
    return *slot;
}

} // namespace beatnik::fft
