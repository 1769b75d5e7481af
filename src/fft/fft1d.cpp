#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "fft/fft.hpp"

namespace hbd {

namespace {
constexpr std::size_t kMaxPrime = 13;

std::vector<std::size_t> factorize(std::size_t n) {
  std::vector<std::size_t> f;
  for (std::size_t p = 2; p <= kMaxPrime && n > 1; ++p) {
    while (n % p == 0) {
      f.push_back(p);
      n /= p;
    }
  }
  HBD_CHECK_MSG(n == 1, "FFT length has a prime factor > " << kMaxPrime);
  return f;
}

// Radix of a level of length n: 4 when it divides n (fewer levels, fewer
// twiddle loads), else the smallest prime factor.
std::size_t level_radix(std::size_t n, const std::vector<std::size_t>& primes) {
  if (n % 4 == 0) return 4;
  for (std::size_t p : primes)
    if (n % p == 0) return p;
  return n;
}

// Decimation in time: output position `out` of a level of length n holds the
// sub-transform of the input samples in, in + stride, ...; leaves (n = 1)
// record which input sample lands where.
void digit_reverse(std::vector<std::size_t>& perm,
                   const std::vector<std::size_t>& primes, std::size_t out,
                   std::size_t in, std::size_t stride, std::size_t n) {
  if (n == 1) {
    perm[out] = in;
    return;
  }
  const std::size_t p = level_radix(n, primes), m = n / p;
  for (std::size_t q = 0; q < p; ++q)
    digit_reverse(perm, primes, out + q * m, in + q * stride, stride * p, m);
}

// The butterflies below compute every complex product w·x as
//   re = fma(wr, xr, −(wi·xi)),  im = fma(wr, xi, wi·xr)   ("form A")
// except where noted ("form B": im = fma(wi, xr, wr·xi)), with wi already
// conjugated for the inverse.  The forms per site are part of the
// transform's definition: test_fft pins the resulting bits.

// Radix 2, form B:  X[k] = A0[k] + W^k·A1[k],  X[k+m] = A0[k] − W^k·A1[k].
template <std::size_t W>
void radix2(double* re, double* im, std::size_t n, std::size_t m,
            const double* twr, const double* twi, bool forward) {
  const double sign = forward ? 1.0 : -1.0;
  for (std::size_t base = 0; base < n; base += 2 * m)
    for (std::size_t k = 0; k < m; ++k) {
      const double wr = twr[k], wi = sign * twi[k];
      double* ar = re + (base + k) * W;
      double* ai = im + (base + k) * W;
      double* br = ar + m * W;
      double* bi = ai + m * W;
#pragma omp simd
      for (std::size_t l = 0; l < W; ++l) {
        const double xr = br[l], xi = bi[l];
        const double pr = std::fma(wr, xr, -(wi * xi));
        const double pi = std::fma(wi, xr, wr * xi);
        const double a0 = ar[l], a1 = ai[l];
        ar[l] = a0 + pr;
        ai[l] = a1 + pi;
        br[l] = a0 - pr;
        bi[l] = a1 - pi;
      }
    }
}

// Radix 4: twists W^k, W^{3k} in form A and W^{2k} in form B, then the
// 4-point DFT whose ±i factors are component swaps.  The forward and
// inverse outputs 1 and 3 trade places.
template <std::size_t W>
void radix4(double* re, double* im, std::size_t n, std::size_t m,
            const double* twr, const double* twi, bool forward) {
  const double sign = forward ? 1.0 : -1.0;
  for (std::size_t base = 0; base < n; base += 4 * m)
    for (std::size_t k = 0; k < m; ++k) {
      const double w1r = twr[3 * k], w1i = sign * twi[3 * k];
      const double w2r = twr[3 * k + 1], w2i = sign * twi[3 * k + 1];
      const double w3r = twr[3 * k + 2], w3i = sign * twi[3 * k + 2];
      double* r0 = re + (base + k) * W;
      double* i0 = im + (base + k) * W;
      double* r1 = r0 + m * W;
      double* i1 = i0 + m * W;
      double* r2 = r1 + m * W;
      double* i2 = i1 + m * W;
      double* r3 = r2 + m * W;
      double* i3 = i2 + m * W;
      // Output of d02 ∓ i·d13 for the forward direction (swapped inverse).
      double* u_r = forward ? r1 : r3;
      double* u_i = forward ? i1 : i3;
      double* v_r = forward ? r3 : r1;
      double* v_i = forward ? i3 : i1;
#pragma omp simd
      for (std::size_t l = 0; l < W; ++l) {
        const double t0r = r0[l], t0i = i0[l];
        const double t1r = std::fma(w1r, r1[l], -(w1i * i1[l]));
        const double t1i = std::fma(w1r, i1[l], w1i * r1[l]);
        const double t2r = std::fma(w2r, r2[l], -(w2i * i2[l]));
        const double t2i = std::fma(w2i, r2[l], w2r * i2[l]);
        const double t3r = std::fma(w3r, r3[l], -(w3i * i3[l]));
        const double t3i = std::fma(w3r, i3[l], w3i * r3[l]);
        const double e02r = t0r + t2r, e02i = t0i + t2i;
        const double d02r = t0r - t2r, d02i = t0i - t2i;
        const double e13r = t1r + t3r, e13i = t1i + t3i;
        const double d13r = t1r - t3r, d13i = t1i - t3i;
        r0[l] = e02r + e13r;
        i0[l] = e02i + e13i;
        r2[l] = e02r - e13r;
        i2[l] = e02i - e13i;
        u_r[l] = d02r + d13i;
        u_i[l] = d02i - d13r;
        v_r[l] = d02r - d13i;
        v_i[l] = d02i + d13r;
      }
    }
}

// Odd prime radix P: twist every leg (form A, W^0 included), then the
// P-point DFT summed from t[0] left to right, each term in form A.  P is a
// template argument so the leg loops unroll and t stays in registers.
template <std::size_t W, std::size_t P>
void radix_odd(double* re, double* im, std::size_t n, std::size_t m,
               const double* twr, const double* twi, bool forward) {
  const double sign = forward ? 1.0 : -1.0;
  const double* rootr = twr + m * P;
  const double* rooti = twi + m * P;
  for (std::size_t base = 0; base < n; base += P * m)
    for (std::size_t k = 0; k < m; ++k) {
      double* r0 = re + (base + k) * W;
      double* i0 = im + (base + k) * W;
      alignas(64) double tr[P][W], ti[P][W];
      for (std::size_t q = 0; q < P; ++q) {
        const double wr = twr[k * P + q], wi = sign * twi[k * P + q];
        const double* xr = r0 + q * m * W;
        const double* xi = i0 + q * m * W;
#pragma omp simd
        for (std::size_t l = 0; l < W; ++l) {
          tr[q][l] = std::fma(wr, xr[l], -(wi * xi[l]));
          ti[q][l] = std::fma(wr, xi[l], wi * xr[l]);
        }
      }
      for (std::size_t q1 = 0; q1 < P; ++q1) {
        alignas(64) double sr[W], si[W];
#pragma omp simd
        for (std::size_t l = 0; l < W; ++l) {
          sr[l] = tr[0][l];
          si[l] = ti[0][l];
        }
        std::size_t r = 0;  // q·q1 mod P
        for (std::size_t q = 1; q < P; ++q) {
          r += q1;
          if (r >= P) r -= P;
          const double wr = rootr[r], wi = sign * rooti[r];
#pragma omp simd
          for (std::size_t l = 0; l < W; ++l) {
            sr[l] += std::fma(wr, tr[q][l], -(wi * ti[q][l]));
            si[l] += std::fma(wr, ti[q][l], wi * tr[q][l]);
          }
        }
        double* yr = r0 + q1 * m * W;
        double* yi = i0 + q1 * m * W;
#pragma omp simd
        for (std::size_t l = 0; l < W; ++l) {
          yr[l] = sr[l];
          yi[l] = si[l];
        }
      }
    }
}
}  // namespace

Fft1dPlan::Fft1dPlan(std::size_t n) : n_(n) {
  HBD_CHECK(n >= 1);
  const std::vector<std::size_t> primes = factorize(n);
  perm_.resize(n);
  digit_reverse(perm_, primes, 0, 0, 1, n);

  std::vector<Complex> w(n);  // e^{-2πi t / n}
  for (std::size_t t = 0; t < n; ++t) {
    const double ang =
        -2.0 * std::numbers::pi * static_cast<double>(t) / static_cast<double>(n);
    w[t] = {std::cos(ang), std::sin(ang)};
  }
  // Levels from the outermost (length n) inwards; executed in reverse.
  for (std::size_t len = n; len > 1;) {
    const std::size_t p = level_radix(len, primes), m = len / p;
    const std::size_t wstride = n / len;  // W_len^j = w[j·wstride]
    Stage st{p, m, tw_re_.size()};
    auto push = [&](std::size_t t) {
      tw_re_.push_back(w[t].real());
      tw_im_.push_back(w[t].imag());
    };
    for (std::size_t k = 0; k < m; ++k) {
      if (p == 2) {
        push(k * wstride);
      } else if (p == 4) {
        for (std::size_t q = 1; q < 4; ++q) push(q * k * wstride);
      } else {
        for (std::size_t q = 0; q < p; ++q) push(q * k * wstride);
      }
    }
    if (p != 2 && p != 4)
      for (std::size_t r = 0; r < p; ++r) push(r * (n / p));
    stages_.insert(stages_.begin(), st);
    len = m;
  }
}

template <std::size_t W>
void Fft1dPlan::transform_tile(double* re, double* im, bool forward) const {
  for (const Stage& st : stages_) {
    const double* twr = tw_re_.data() + st.offset;
    const double* twi = tw_im_.data() + st.offset;
    const std::size_t m = st.span;
    switch (st.radix) {
      case 2: radix2<W>(re, im, n_, m, twr, twi, forward); break;
      case 4: radix4<W>(re, im, n_, m, twr, twi, forward); break;
      case 3: radix_odd<W, 3>(re, im, n_, m, twr, twi, forward); break;
      case 5: radix_odd<W, 5>(re, im, n_, m, twr, twi, forward); break;
      case 7: radix_odd<W, 7>(re, im, n_, m, twr, twi, forward); break;
      case 11: radix_odd<W, 11>(re, im, n_, m, twr, twi, forward); break;
      case 13: radix_odd<W, 13>(re, im, n_, m, twr, twi, forward); break;
    }
  }
}

template void Fft1dPlan::transform_tile<1>(double*, double*, bool) const;
template void Fft1dPlan::transform_tile<Fft1dPlan::kLanes>(double*, double*,
                                                           bool) const;

namespace {
// One line through the one-lane tile kernel; `workspace` holds the tile.
void transform_line(const Fft1dPlan& plan, Complex* x, Complex* workspace,
                    bool forward) {
  const std::size_t n = plan.size();
  double* re = reinterpret_cast<double*>(workspace);
  double* im = re + n;
  for (std::size_t j = 0; j < n; ++j) {
    re[j] = x[plan.perm()[j]].real();
    im[j] = x[plan.perm()[j]].imag();
  }
  plan.transform_tile<1>(re, im, forward);
  for (std::size_t k = 0; k < n; ++k) x[k] = {re[k], im[k]};
}
}  // namespace

void Fft1dPlan::forward(Complex* x, Complex* workspace) const {
  transform_line(*this, x, workspace, /*forward=*/true);
}

void Fft1dPlan::inverse(Complex* x, Complex* workspace) const {
  transform_line(*this, x, workspace, /*forward=*/false);
}

void dft_naive(const Complex* in, Complex* out, std::size_t n, bool forward) {
  const double sign = forward ? -1.0 : 1.0;
  for (std::size_t k = 0; k < n; ++k) {
    Complex s = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = sign * 2.0 * std::numbers::pi *
                         static_cast<double>(j * k % n) /
                         static_cast<double>(n);
      s += in[j] * Complex{std::cos(ang), std::sin(ang)};
    }
    out[k] = s;
  }
}

}  // namespace hbd
