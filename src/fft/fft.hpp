// FFT substrate.  The paper computes the PME reciprocal-space sum with MKL's
// in-place real 3-D FFTs; this environment has no FFT library, so the
// library carries its own plan-based implementation:
//
//   * mixed-radix complex 1-D FFT (any length whose prime factors are ≤ 13),
//   * real-to-complex / complex-to-real 1-D wrappers via the half-length
//     complex trick (even lengths),
//   * 3-D r2c/c2r transforms storing only the half spectrum
//     (nx × ny × (nz/2+1)), matching the memory-halving layout the paper
//     exploits for the influence function (Sec. IV-B.3).
//
// The 1-D kernel is an iterative decimation-in-time Cooley–Tukey
// transform.  The plan fixes the radix of every level (4 when the remaining
// length allows it, else its smallest prime), the digit-reversal
// permutation, and one twiddle table per stage, laid out in the order the
// butterflies read it; no twiddle index is computed at transform time.  A
// transform runs on a lane tile: W independent lines stored split re/im as
// re[j·W + l], im[j·W + l], so every butterfly is one `omp simd` loop over
// the W lanes with the stage's twiddle broadcast.  The 3-D passes gather W
// adjacent lines of a mesh (or of an interleaved batch) straight into a
// per-thread tile in permuted order, transform it, and scatter it back;
// Fft1dPlan::forward/inverse run the same kernel on one lane.
//
// Every complex product w·x is an explicit std::fma in a fixed form per
// site (wi conjugated for inverse transforms):
//
//   site                                  re                    im
//   radix-2 twist                         fma(wr,xr,−(wi·xi))   fma(wi,xr,wr·xi)
//   radix-4 twist, legs 1 and 3           fma(wr,xr,−(wi·xi))   fma(wr,xi,wi·xr)
//   radix-4 twist, leg 2                  fma(wr,xr,−(wi·xi))   fma(wi,xr,wr·xi)
//   odd radix: twist, p-point sum terms   fma(wr,xr,−(wi·xi))   fma(wr,xi,wi·xr)
//   r2c untangle e + w·o                  fma(wr,or,−(wi·oi))   fma(wi,or,wr·oi)
//   c2r retangle (i·conj w)·d, c exact    fma(cr,dr,−(ci·di))   fma(cr,di,ci·dr)
//
// so the bits of a transform depend on neither the lane width nor the
// compiler's floating-point contraction.  The forms and the radix order are
// those of the recursive transform this kernel replaced (as GCC 12 compiled
// it at -O3 -march=native), whose outputs the golden hashes in test_fft pin.
//
// Conventions: the forward transform is  X[k] = Σ_j x[j] e^{-2πi jk/N}  and
// the inverse is the unnormalized conjugate sum  x[j] = Σ_k X[k] e^{+2πi jk/N},
// so forward∘inverse = N·identity.  PME needs exactly these unnormalized
// sums (the 1/L³ volume factor is explicit in the Ewald formulas).
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/aligned.hpp"

namespace hbd {

using Complex = std::complex<double>;

/// Plan for complex 1-D FFTs of a fixed length.  Immutable after
/// construction and safe to share across threads; each call site provides
/// its own workspace or lane tile.
class Fft1dPlan {
 public:
  /// Lines per tile in the 3-D passes.
  static constexpr std::size_t kLanes = 8;

  explicit Fft1dPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// Required workspace length (in Complex elements) for forward() and
  /// inverse(): a one-lane split re/im tile.
  std::size_t workspace_size() const { return n_; }

  /// In-place forward transform (sign −1 in the exponent).
  void forward(Complex* x, Complex* workspace) const;
  /// In-place unnormalized inverse transform (sign +1).
  void inverse(Complex* x, Complex* workspace) const;

  /// Digit-reversal permutation: a tile enters transform_tile() holding
  /// sample perm()[j] of each line at position j.
  const std::vector<std::size_t>& perm() const { return perm_; }

  /// Transforms W lines in place on a split tile (re/im[j·W + l] is element
  /// j of line l): permuted input, natural-order output.  Instantiated for
  /// W = 1 and W = kLanes.
  template <std::size_t W>
  void transform_tile(double* re, double* im, bool forward) const;

 private:
  // One butterfly level, in execution order (innermost level first).  A
  // level combines `radix` sub-transforms of length `span` into transforms
  // of length radix·span; its twiddles start at tw_re_/tw_im_[offset].
  struct Stage {
    std::size_t radix, span, offset;
  };

  std::size_t n_;
  std::vector<std::size_t> perm_;
  std::vector<Stage> stages_;
  // Per stage, k-major: radix 2 stores W_N^k, radix 4 stores W_N^{k,2k,3k},
  // radix p stores W_N^{qk} for q = 0..p−1 followed by the p roots W_p^r
  // (N = radix·span).  Forward signs; the inverse conjugates on the fly.
  aligned_vector<double> tw_re_, tw_im_;
};

/// Reference O(n²) DFT used by the test suite.
void dft_naive(const Complex* in, Complex* out, std::size_t n, bool forward);

/// 3-D transforms between a real nx×ny×nz array (row-major, z fastest) and
/// the complex half spectrum nx×ny×(nz/2+1).  nz must be even.
///
/// Besides the single-mesh transforms, the plan exposes batched variants
/// that transform `batch` meshes stored interleaved (mesh index fastest:
/// element (t, q) of the batch lives at data[t*batch + q]).  Every entry
/// point runs one parallel region per axis with the work-sharing loop over
/// chunks of Fft1dPlan::kLanes adjacent lines (lines × batch), so the 3s
/// meshes of a block mobility application are transformed in a single pass
/// instead of s passes of 3.
class Fft3d {
 public:
  Fft3d(std::size_t nx, std::size_t ny, std::size_t nz);

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }
  std::size_t nz() const { return nz_; }
  /// Number of complex entries of the half spectrum.
  std::size_t complex_size() const { return nx_ * ny_ * nzh_; }
  std::size_t real_size() const { return nx_ * ny_ * nz_; }

  /// Forward real-to-complex transform (unnormalized).
  void forward(const double* in, Complex* out) const;
  /// Inverse complex-to-real transform (unnormalized: forward∘inverse = N·id
  /// with N = nx·ny·nz).  `in` is not modified.
  void inverse(const Complex* in, double* out) const;

  /// Batched forward transform of `batch` interleaved real meshes into
  /// `batch` interleaved half spectra.
  void forward_batch(const double* in, Complex* out, std::size_t batch) const;
  /// Batched inverse transform.  Destroys `in`: unlike the single-mesh
  /// inverse there is no defensive spectrum copy — batch buffers are owned
  /// by the caller's pipeline and are dead after this call.
  void inverse_batch(Complex* in, double* out, std::size_t batch) const;

 private:
  // Axis passes shared by the scalar and batched entry points; `batch` is
  // the interleave factor (1 for the scalar transforms).
  void pass_z_forward(const double* in, Complex* out, std::size_t batch) const;
  void pass_z_inverse(const Complex* in, double* out, std::size_t batch) const;
  void pass_y(Complex* data, std::size_t batch, bool forward) const;
  void pass_x(Complex* data, std::size_t batch, bool forward) const;

  std::size_t nx_, ny_, nz_, nzh_;
  Fft1dPlan plan_x_, plan_y_, plan_zh_;  // zh: half-length complex plan
  // r2c untangle twiddles e^{-2πi k/nz} (k = 0..nz/2) and the c2r retangle
  // factors i·conj(e^{-2πi k/nz}), split re/im.
  aligned_vector<double> wz_re_, wz_im_, cz_re_, cz_im_;
};

}  // namespace hbd
