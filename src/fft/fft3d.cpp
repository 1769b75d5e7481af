#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "fft/fft.hpp"

namespace hbd {

namespace {
constexpr std::size_t W = Fft1dPlan::kLanes;

// Lane l's element j lives at base[j·stride + l]: deinterleaves row j's
// `lanes` ≤ W complexes into the split tile (unused lanes zeroed), and back.
void load_row(const Complex* row, std::size_t lanes, double* re, double* im) {
  const double* src = reinterpret_cast<const double*>(row);
  if (lanes == W) {
#pragma omp simd
    for (std::size_t l = 0; l < W; ++l) {
      re[l] = src[2 * l];
      im[l] = src[2 * l + 1];
    }
    return;
  }
  for (std::size_t l = 0; l < W; ++l) {
    re[l] = l < lanes ? src[2 * l] : 0.0;
    im[l] = l < lanes ? src[2 * l + 1] : 0.0;
  }
}

void store_row(Complex* row, std::size_t lanes, const double* re,
               const double* im) {
  double* dst = reinterpret_cast<double*>(row);
  if (lanes == W) {
#pragma omp simd
    for (std::size_t l = 0; l < W; ++l) {
      dst[2 * l] = re[l];
      dst[2 * l + 1] = im[l];
    }
    return;
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    dst[2 * l] = re[l];
    dst[2 * l + 1] = im[l];
  }
}

// Transforms the `lanes` ≤ W complex lines starting at `base`: element j of
// line l lives at base[j·stride + l], so the lanes are adjacent in memory.
void transform_lines(const Fft1dPlan& plan, Complex* base, std::size_t stride,
                     std::size_t lanes, double* re, double* im, bool forward) {
  const std::size_t n = plan.size();
  const std::vector<std::size_t>& perm = plan.perm();
  for (std::size_t j = 0; j < n; ++j)
    load_row(base + perm[j] * stride, lanes, re + j * W, im + j * W);
  plan.transform_tile<W>(re, im, forward);
  for (std::size_t k = 0; k < n; ++k)
    store_row(base + k * stride, lanes, re + k * W, im + k * W);
}

// The lines l0 .. l0+count−1 of a z pass: line L is component L mod batch of
// the xy block L / batch, whose elements sit `batch` apart inside blocks of
// `block` elements.  A full chunk inside one block (batch a multiple of W)
// is contiguous, like the lines of the y and x passes.
struct ZLanes {
  std::size_t off[W] = {};
  std::size_t count;
  bool contiguous;

  ZLanes(std::size_t l0, std::size_t lines, std::size_t batch,
         std::size_t block)
      : count(std::min(W, lines - l0)) {
    std::size_t xy = l0 / batch, q = l0 % batch;
    for (std::size_t l = 0; l < count; ++l) {
      off[l] = xy * block + q;
      if (++q == batch) {
        q = 0;
        ++xy;
      }
    }
    contiguous = count == W && off[W - 1] - off[0] == W - 1;
  }
};

// Element d of every lane into dst[0..W), unused lanes zeroed.
void load_real(const double* base, const ZLanes& z, std::size_t d,
               double* dst) {
  if (z.contiguous) {
    const double* src = base + z.off[0] + d;
#pragma omp simd
    for (std::size_t l = 0; l < W; ++l) dst[l] = src[l];
    return;
  }
  for (std::size_t l = 0; l < W; ++l)
    dst[l] = l < z.count ? base[z.off[l] + d] : 0.0;
}

void store_real(double* base, const ZLanes& z, std::size_t d,
                const double* src) {
  if (z.contiguous) {
    double* dst = base + z.off[0] + d;
#pragma omp simd
    for (std::size_t l = 0; l < W; ++l) dst[l] = src[l];
    return;
  }
  for (std::size_t l = 0; l < z.count; ++l) base[z.off[l] + d] = src[l];
}

void load_complex(const Complex* base, const ZLanes& z, std::size_t d,
                  double* re, double* im) {
  if (z.contiguous) return load_row(base + z.off[0] + d, W, re, im);
  for (std::size_t l = 0; l < W; ++l) {
    const Complex c = l < z.count ? base[z.off[l] + d] : Complex{};
    re[l] = c.real();
    im[l] = c.imag();
  }
}

void store_complex(Complex* base, const ZLanes& z, std::size_t d,
                   const double* re, const double* im) {
  if (z.contiguous) return store_row(base + z.off[0] + d, W, re, im);
  for (std::size_t l = 0; l < z.count; ++l)
    base[z.off[l] + d] = {re[l], im[l]};
}
}  // namespace

Fft3d::Fft3d(std::size_t nx, std::size_t ny, std::size_t nz)
    : nx_(nx),
      ny_(ny),
      nz_(nz),
      nzh_(nz / 2 + 1),
      plan_x_(nx),
      plan_y_(ny),
      plan_zh_(nz / 2) {
  HBD_CHECK_MSG(nz % 2 == 0 && nz >= 2, "Fft3d requires even nz");
  for (std::size_t k = 0; k <= nz / 2; ++k) {
    const double ang = -2.0 * std::numbers::pi * static_cast<double>(k) /
                       static_cast<double>(nz);
    const Complex w{std::cos(ang), std::sin(ang)};
    const Complex c = Complex{0.0, 1.0} * std::conj(w);  // exact
    wz_re_.push_back(w.real());
    wz_im_.push_back(w.imag());
    cz_re_.push_back(c.real());
    cz_im_.push_back(c.imag());
  }
}

// Every pass cuts its lines into chunks of W adjacent lines — adjacent in
// the interleaved batch layout, so a chunk spans the batch components of one
// line position before it moves on to the next position — and transforms a
// chunk on a per-thread split tile.  The gather writes the tile in the
// plan's digit-reversed order; the scatter reads it in natural order.  A
// lane's arithmetic does not depend on its neighbours, so the batched and
// single-mesh transforms are bitwise identical per component, for any
// thread count.

// Real-to-complex along z: each line's even/odd samples form a half-length
// complex sequence, transformed and then untangled into the half spectrum.
void Fft3d::pass_z_forward(const double* in, Complex* out,
                           std::size_t batch) const {
  const std::size_t h = nz_ / 2;
  const std::size_t lines = nx_ * ny_ * batch;
  const std::vector<std::size_t>& perm = plan_zh_.perm();
#pragma omp parallel
  {
    aligned_vector<double> re(h * W), im(h * W);
#pragma omp for schedule(static)
    for (std::size_t l0 = 0; l0 < lines; l0 += W) {
      const ZLanes src(l0, lines, batch, nz_ * batch);
      const ZLanes dst(l0, lines, batch, nzh_ * batch);
      for (std::size_t j = 0; j < h; ++j) {
        load_real(in, src, 2 * perm[j] * batch, re.data() + j * W);
        load_real(in, src, (2 * perm[j] + 1) * batch, im.data() + j * W);
      }
      plan_zh_.transform_tile<W>(re.data(), im.data(), /*forward=*/true);
      // Untangle X[k] = E[k] + w^k O[k] with E = (Z[k] + conj Z[h−k]) / 2 and
      // O = −i/2 (Z[k] − conj Z[h−k]) (indices mod h); w^k·O in the form
      // re = fma(wr, or, −(wi·oi)), im = fma(wi, or, wr·oi).
      for (std::size_t k = 0; k <= h; ++k) {
        const double* ar = re.data() + (k == h ? 0 : k) * W;
        const double* ai = im.data() + (k == h ? 0 : k) * W;
        const double* br = re.data() + (k == 0 ? 0 : h - k) * W;
        const double* bi = im.data() + (k == 0 ? 0 : h - k) * W;
        const double wr = wz_re_[k], wi = wz_im_[k];
        alignas(64) double xr[W], xi[W];
#pragma omp simd
        for (std::size_t l = 0; l < W; ++l) {
          const double zr = ar[l], zi = ai[l], mr = br[l], mi = -bi[l];
          const double er = 0.5 * (zr + mr), ei = 0.5 * (zi + mi);
          const double dr = zr - mr, di = zi - mi;
          // (0 − i/2)·d as the full complex product (exact).
          const double o_r = std::fma(0.0, dr, -(-0.5 * di));
          const double o_i = std::fma(0.0, di, -0.5 * dr);
          xr[l] = er + std::fma(wr, o_r, -(wi * o_i));
          xi[l] = ei + std::fma(wi, o_r, wr * o_i);
        }
        store_complex(out, dst, k * batch, xr, xi);
      }
    }
  }
}

// Complex-to-real along z: retangle the half spectrum into a half-length
// complex sequence, inverse transform, unpack even/odd.
void Fft3d::pass_z_inverse(const Complex* in, double* out,
                           std::size_t batch) const {
  const std::size_t h = nz_ / 2;
  const std::size_t lines = nx_ * ny_ * batch;
  const std::vector<std::size_t>& perm = plan_zh_.perm();
#pragma omp parallel
  {
    aligned_vector<double> re(h * W), im(h * W);
#pragma omp for schedule(static)
    for (std::size_t l0 = 0; l0 < lines; l0 += W) {
      const ZLanes src(l0, lines, batch, nzh_ * batch);
      const ZLanes dst(l0, lines, batch, nz_ * batch);
      // Z[k] = (A+B) + c_k·(A−B) with B = conj X[h−k] and c_k = i·conj(w^k),
      // so that the unnormalized half-length inverse yields x[2j] + i x[2j+1];
      // c_k·d in the form re = fma(cr, dr, −(ci·di)), im = fma(cr, di, ci·dr).
      for (std::size_t j = 0; j < h; ++j) {
        const std::size_t k = perm[j];
        const double cr = cz_re_[k], ci = cz_im_[k];
        alignas(64) double ar[W], ai[W], br[W], bi[W];
        load_complex(in, src, k * batch, ar, ai);
        load_complex(in, src, (h - k) * batch, br, bi);
#pragma omp simd
        for (std::size_t l = 0; l < W; ++l) {
          const double bc = -bi[l];  // conj
          const double sr = ar[l] + br[l], si = ai[l] + bc;
          const double dr = ar[l] - br[l], di = ai[l] - bc;
          re[j * W + l] = sr + std::fma(cr, dr, -(ci * di));
          im[j * W + l] = si + std::fma(cr, di, ci * dr);
        }
      }
      plan_zh_.transform_tile<W>(re.data(), im.data(), /*forward=*/false);
      for (std::size_t j = 0; j < h; ++j) {
        store_real(out, dst, 2 * j * batch, re.data() + j * W);
        store_real(out, dst, (2 * j + 1) * batch, im.data() + j * W);
      }
    }
  }
}

// Complex transform along y.  Within one x plane the nzh·batch y lines are
// adjacent in memory, element iy of each at stride nzh·batch.
void Fft3d::pass_y(Complex* data, std::size_t batch, bool forward) const {
  const std::size_t stride = nzh_ * batch;
  const std::size_t chunks = (stride + W - 1) / W;
#pragma omp parallel
  {
    aligned_vector<double> re(ny_ * W), im(ny_ * W);
#pragma omp for schedule(static)
    for (std::size_t c = 0; c < nx_ * chunks; ++c) {
      const std::size_t ix = c / chunks, r0 = (c % chunks) * W;
      transform_lines(plan_y_, data + ix * ny_ * stride + r0, stride,
                      std::min(W, stride - r0), re.data(), im.data(), forward);
    }
  }
}

// Complex transform along x: all ny·nzh·batch x lines are adjacent, element
// ix of each at stride ny·nzh·batch.
void Fft3d::pass_x(Complex* data, std::size_t batch, bool forward) const {
  const std::size_t stride = ny_ * nzh_ * batch;
#pragma omp parallel
  {
    aligned_vector<double> re(nx_ * W), im(nx_ * W);
#pragma omp for schedule(static)
    for (std::size_t r0 = 0; r0 < stride; r0 += W)
      transform_lines(plan_x_, data + r0, stride, std::min(W, stride - r0),
                      re.data(), im.data(), forward);
  }
}

void Fft3d::forward(const double* in, Complex* out) const {
  pass_z_forward(in, out, 1);
  pass_y(out, 1, /*forward=*/true);
  pass_x(out, 1, /*forward=*/true);
}

void Fft3d::inverse(const Complex* in, double* out) const {
  // Work on a copy so the caller's spectrum is preserved (the Krylov loop
  // reuses mesh buffers; an in-place destructive inverse invites aliasing
  // bugs for a minor memory win).
  aligned_vector<Complex> tmp(in, in + complex_size());
  pass_x(tmp.data(), 1, /*forward=*/false);
  pass_y(tmp.data(), 1, /*forward=*/false);
  pass_z_inverse(tmp.data(), out, 1);
}

void Fft3d::forward_batch(const double* in, Complex* out,
                          std::size_t batch) const {
  HBD_CHECK(batch >= 1);
  pass_z_forward(in, out, batch);
  pass_y(out, batch, /*forward=*/true);
  pass_x(out, batch, /*forward=*/true);
}

void Fft3d::inverse_batch(Complex* in, double* out, std::size_t batch) const {
  HBD_CHECK(batch >= 1);
  pass_x(in, batch, /*forward=*/false);
  pass_y(in, batch, /*forward=*/false);
  pass_z_inverse(in, out, batch);
}

}  // namespace hbd
