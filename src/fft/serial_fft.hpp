/// \file serial_fft.hpp
/// \brief On-rank 1D complex FFT kernels (the node-local compute under the
/// distributed transforms, standing in for heFFTe's cuFFT/FFTW backends).
///
/// Two algorithms cover every length:
///  * power-of-two: iterative radix-2 Cooley–Tukey (decimation in time).
///    The bit-reversal permutation is a precomputed swap list. The
///    twiddles of each stage sit contiguously in stage-major tables (real,
///    imaginary, and the negated imaginary of the conjugate for the
///    inverse), so a butterfly reads its twiddle at unit stride and never
///    branches on the direction. Consecutive stages run fused in pairs:
///    one radix-2² pass over the line holds four values in registers and
///    applies both stages' butterflies to them, halving the passes over
///    memory. Products are explicit real arithmetic, not std::complex's
///    operator*, which adds a NaN check and a library fallback.
///  * arbitrary n: Bluestein's chirp-z, which reduces the transform to a
///    cyclic convolution executed with the radix-2 kernel.
///
/// Bitwise contract: for finite input the output is bit-for-bit that of
/// the textbook loop — bit reversal, then for each stage, each block and
/// each k, `v = x[k + half] * w[k * n / len]` (w conjugated for the
/// inverse), `x[k] = u + v`, `x[k + half] = u - v`, then one scaling pass
/// for the inverse. Every butterfly keeps its operands, its twiddle and
/// its order of operations; fusion and the tables only change the memory
/// traffic. tests/fft/test_serial_fft.cpp checks this with memcmp against
/// that loop.
///
/// Lines are transformed one at a time or as a batch (forward_lines /
/// inverse_lines): `count` lines `line_stride` apart, each with its
/// elements `elem_stride` apart. Strided lines are gathered into caller
/// scratch, transformed and scattered back, so the distributed transform
/// can run directly over mesh-ordered data when the `reorder` knob is off
/// — the same contiguous-vs-strided tradeoff heFFTe's reorder option
/// exposes.
#pragma once

#include <array>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "base/error.hpp"

namespace beatnik::fft {

using cplx = std::complex<double>;

/// True if n is a power of two (n >= 1).
constexpr bool is_pow2(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

/// Smallest power of two >= n.
constexpr std::size_t next_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

/// Reusable plan for 1D transforms of a fixed length.
///
/// Normalization convention: forward() is unscaled; inverse() divides by n,
/// so inverse(forward(x)) == x.
class SerialFFT1D {
public:
    explicit SerialFFT1D(std::size_t n);

    [[nodiscard]] std::size_t size() const { return n_; }

    /// Transform n contiguous values in place.
    void forward(cplx* data) const { forward_strided(data, 1); }
    void inverse(cplx* data) const { inverse_strided(data, 1); }

    /// Transform n values at the given element stride in place. Strided
    /// and Bluestein lines allocate their scratch per call; batched callers
    /// use the *_lines API with persistent scratch instead.
    void forward_strided(cplx* data, std::size_t stride) const;
    void inverse_strided(cplx* data, std::size_t stride) const;

    /// Scratch elements the *_lines calls need at \p elem_stride (zero for
    /// contiguous power-of-two lines).
    [[nodiscard]] std::size_t scratch_size(std::size_t elem_stride) const {
        return pow2_ ? (elem_stride == 1 ? 0 : n_) : tables_.n;
    }

    /// Transform \p count lines in place: line l starts at
    /// `data + l * line_stride` and has its n elements \p elem_stride
    /// apart. \p scratch holds at least scratch_size(elem_stride) elements
    /// and is clobbered. Bitwise identical to one *_strided call per line.
    void forward_lines(cplx* data, std::size_t count, std::size_t line_stride,
                       std::size_t elem_stride, std::span<cplx> scratch) const;
    void inverse_lines(cplx* data, std::size_t count, std::size_t line_stride,
                       std::size_t elem_stride, std::span<cplx> scratch) const;

    /// Flop estimate for one transform (used by the netsim compute model).
    [[nodiscard]] double flops() const;

private:
    /// Radix-2 tables for one power-of-two length.
    struct Radix2Tables {
        std::size_t n = 0;
        /// Bit-reversal permutation as (i, j) swaps with i < j.
        std::vector<std::array<std::uint32_t, 2>> swaps;
        /// Stage-major twiddles: the stage with half-span h (len = 2h)
        /// uses entries [h, 2h); entry h + k is exp(-2*pi*i*k/len) taken
        /// from the length-n table. im_inv is -im (the conjugate).
        std::vector<double> re;
        std::vector<double> im;
        std::vector<double> im_inv;
    };
    static Radix2Tables make_tables(std::size_t n);

    /// Transform one contiguous power-of-two sequence of length t.n in
    /// place (bit reversal, then the butterflies); the inverse is
    /// unnormalized but multiplies the last stage's outputs by \p scale.
    template <bool Inverse>
    static void radix2(const Radix2Tables& t, cplx* x, double scale);

    template <bool Inverse>
    void lines(cplx* data, std::size_t count, std::size_t line_stride, std::size_t elem_stride,
               std::span<cplx> scratch) const;
    template <bool Inverse>
    void bluestein(cplx* data, std::size_t stride, cplx* a) const;

    std::size_t n_;
    bool pow2_;
    Radix2Tables tables_;          ///< for n_ (pow2) or conv length (Bluestein)
    // Bluestein precomputation.
    std::vector<cplx> chirp_;      ///< b[k] = exp(-i*pi*k^2/n)
    std::vector<cplx> chirp_fft_;  ///< FFT of the padded conjugate chirp
};

/// Process-wide plan cache: rank-threads repeatedly transform the same
/// lengths, and plan construction is O(n log n). Thread-safe; distributed
/// transforms resolve their plans once at construction, not per stage.
const SerialFFT1D& plan_for(std::size_t n);

} // namespace beatnik::fft
