// Tests for the FFT substrate: 1-D mixed radix against the naive DFT,
// round trips, Parseval, and the 3-D r2c/c2r transforms.
#include <gtest/gtest.h>

#include <omp.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"
#include "obs/flight.hpp"

namespace hbd {
namespace {

std::vector<Complex> random_complex(std::size_t n, std::uint64_t seed) {
  std::vector<Complex> v(n);
  Xoshiro256 rng(seed);
  for (auto& c : v)
    c = {2.0 * rng.next_double() - 1.0, 2.0 * rng.next_double() - 1.0};
  return v;
}

class Fft1dSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1dSizes, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  const std::vector<Complex> x = random_complex(n, 17 + n);
  std::vector<Complex> expected(n);
  dft_naive(x.data(), expected.data(), n, /*forward=*/true);

  Fft1dPlan plan(n);
  std::vector<Complex> y = x, ws(plan.workspace_size());
  plan.forward(y.data(), ws.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), expected[i].real(), 1e-10 * n) << "n=" << n;
    EXPECT_NEAR(y[i].imag(), expected[i].imag(), 1e-10 * n) << "n=" << n;
  }
}

TEST_P(Fft1dSizes, RoundTripIsNTimesIdentity) {
  const std::size_t n = GetParam();
  const std::vector<Complex> x = random_complex(n, 31 + n);
  Fft1dPlan plan(n);
  std::vector<Complex> y = x, ws(plan.workspace_size());
  plan.forward(y.data(), ws.data());
  plan.inverse(y.data(), ws.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), n * x[i].real(), 1e-10 * n);
    EXPECT_NEAR(y[i].imag(), n * x[i].imag(), 1e-10 * n);
  }
}

TEST_P(Fft1dSizes, Parseval) {
  const std::size_t n = GetParam();
  const std::vector<Complex> x = random_complex(n, 57 + n);
  Fft1dPlan plan(n);
  std::vector<Complex> y = x, ws(plan.workspace_size());
  plan.forward(y.data(), ws.data());
  double ex = 0.0, ey = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ex += std::norm(x[i]);
    ey += std::norm(y[i]);
  }
  EXPECT_NEAR(ey, n * ex, 1e-9 * n * ex);
}

INSTANTIATE_TEST_SUITE_P(AllRadices, Fft1dSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12,
                                           13, 16, 24, 30, 32, 35, 48, 60, 64,
                                           72, 88, 100, 128, 144, 169, 176,
                                           200, 256));

TEST(Fft1d, RejectsLargePrimeFactors) {
  EXPECT_THROW(Fft1dPlan(17), Error);
  EXPECT_THROW(Fft1dPlan(2 * 19), Error);
}

TEST(Fft1d, ImpulseGivesFlatSpectrum) {
  const std::size_t n = 48;
  std::vector<Complex> x(n, 0.0);
  x[0] = 1.0;
  Fft1dPlan plan(n);
  std::vector<Complex> ws(plan.workspace_size());
  plan.forward(x.data(), ws.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i].real(), 1.0, 1e-12);
    EXPECT_NEAR(x[i].imag(), 0.0, 1e-12);
  }
}

TEST(Fft1d, PureToneLandsInOneBin) {
  const std::size_t n = 64, bin = 5;
  std::vector<Complex> x(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double ang = 2.0 * M_PI * bin * j / static_cast<double>(n);
    x[j] = {std::cos(ang), std::sin(ang)};
  }
  Fft1dPlan plan(n);
  std::vector<Complex> ws(plan.workspace_size());
  plan.forward(x.data(), ws.data());
  for (std::size_t k = 0; k < n; ++k) {
    const double expect = (k == bin) ? static_cast<double>(n) : 0.0;
    EXPECT_NEAR(std::abs(x[k]), expect, 1e-9);
  }
}

// ---- 3-D transforms --------------------------------------------------------

struct Dims {
  std::size_t nx, ny, nz;
};

class Fft3dDims : public ::testing::TestWithParam<Dims> {};

TEST_P(Fft3dDims, MatchesNaive3dDft) {
  const auto [nx, ny, nz] = GetParam();
  Fft3d fft(nx, ny, nz);
  std::vector<double> x(nx * ny * nz);
  Xoshiro256 rng(nx * 100 + ny * 10 + nz);
  fill_uniform(rng, x);

  std::vector<Complex> spec(fft.complex_size());
  fft.forward(x.data(), spec.data());

  // Naive 3-D DFT at a sample of wave vectors in the half spectrum.
  const std::size_t nzh = nz / 2 + 1;
  for (std::size_t kx : {std::size_t{0}, nx / 2, nx - 1}) {
    for (std::size_t ky : {std::size_t{0}, ny / 3, ny - 1}) {
      for (std::size_t kz = 0; kz < nzh; kz += 2) {
        Complex s = 0.0;
        for (std::size_t jx = 0; jx < nx; ++jx)
          for (std::size_t jy = 0; jy < ny; ++jy)
            for (std::size_t jz = 0; jz < nz; ++jz) {
              const double ang =
                  -2.0 * M_PI *
                  (static_cast<double>(jx * kx) / nx +
                   static_cast<double>(jy * ky) / ny +
                   static_cast<double>(jz * kz) / nz);
              s += x[(jx * ny + jy) * nz + jz] *
                   Complex{std::cos(ang), std::sin(ang)};
            }
        const Complex got = spec[(kx * ny + ky) * nzh + kz];
        EXPECT_NEAR(got.real(), s.real(), 1e-9 * nx * ny * nz);
        EXPECT_NEAR(got.imag(), s.imag(), 1e-9 * nx * ny * nz);
      }
    }
  }
}

TEST_P(Fft3dDims, RoundTripIsNTimesIdentity) {
  const auto [nx, ny, nz] = GetParam();
  Fft3d fft(nx, ny, nz);
  std::vector<double> x(nx * ny * nz), back(nx * ny * nz);
  Xoshiro256 rng(7777);
  fill_gaussian(rng, x);
  std::vector<Complex> spec(fft.complex_size());
  fft.forward(x.data(), spec.data());
  fft.inverse(spec.data(), back.data());
  const double scale = static_cast<double>(nx * ny * nz);
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_NEAR(back[i], scale * x[i], 1e-9 * scale);
}

TEST_P(Fft3dDims, InversePreservesInputSpectrum) {
  const auto [nx, ny, nz] = GetParam();
  Fft3d fft(nx, ny, nz);
  std::vector<double> x(nx * ny * nz), out(nx * ny * nz);
  Xoshiro256 rng(31);
  fill_gaussian(rng, x);
  std::vector<Complex> spec(fft.complex_size());
  fft.forward(x.data(), spec.data());
  const std::vector<Complex> spec_copy = spec;
  fft.inverse(spec.data(), out.data());
  for (std::size_t i = 0; i < spec.size(); ++i)
    ASSERT_EQ(spec[i], spec_copy[i]);
}

INSTANTIATE_TEST_SUITE_P(SmallGrids, Fft3dDims,
                         ::testing::Values(Dims{4, 4, 4}, Dims{8, 8, 8},
                                           Dims{6, 10, 8}, Dims{12, 4, 6},
                                           Dims{16, 16, 16}, Dims{5, 9, 12}));

TEST(Fft3d, RejectsOddNz) { EXPECT_THROW(Fft3d(4, 4, 5), Error); }

TEST(Fft3d, RealInputHermitianSymmetry) {
  // For real input, X[-k] = conj(X[k]); check via the full box: the kz=0
  // plane must satisfy X[nx-kx, ny-ky, 0] = conj(X[kx, ky, 0]).
  const std::size_t n = 8;
  Fft3d fft(n, n, n);
  std::vector<double> x(n * n * n);
  Xoshiro256 rng(91);
  fill_gaussian(rng, x);
  std::vector<Complex> spec(fft.complex_size());
  fft.forward(x.data(), spec.data());
  const std::size_t nzh = n / 2 + 1;
  for (std::size_t kx = 1; kx < n; ++kx) {
    for (std::size_t ky = 1; ky < n; ++ky) {
      const Complex a = spec[(kx * n + ky) * nzh + 0];
      const Complex b = spec[((n - kx) * n + (n - ky)) * nzh + 0];
      EXPECT_NEAR(a.real(), b.real(), 1e-10);
      EXPECT_NEAR(a.imag(), -b.imag(), 1e-10);
    }
  }
}

// ---- Batched transforms -----------------------------------------------------

class Fft3dBatch : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft3dBatch, ForwardMatchesScalarPerMesh) {
  const std::size_t batch = GetParam();
  const std::size_t nx = 6, ny = 8, nz = 10;
  Fft3d fft(nx, ny, nz);
  const std::size_t m3 = fft.real_size(), cs = fft.complex_size();

  // Interleaved batch input and its de-interleaved copies.
  std::vector<double> in(m3 * batch);
  Xoshiro256 rng(311 + batch);
  fill_gaussian(rng, in);

  std::vector<Complex> out(cs * batch);
  fft.forward_batch(in.data(), out.data(), batch);

  std::vector<double> mesh(m3);
  std::vector<Complex> spec(cs);
  for (std::size_t q = 0; q < batch; ++q) {
    for (std::size_t t = 0; t < m3; ++t) mesh[t] = in[t * batch + q];
    fft.forward(mesh.data(), spec.data());
    for (std::size_t t = 0; t < cs; ++t) {
      // Identical arithmetic per component: bit-for-bit equality.
      ASSERT_EQ(out[t * batch + q], spec[t]) << "q=" << q << " t=" << t;
    }
  }
}

TEST_P(Fft3dBatch, InverseMatchesScalarPerMesh) {
  const std::size_t batch = GetParam();
  const std::size_t nx = 4, ny = 6, nz = 8;
  Fft3d fft(nx, ny, nz);
  const std::size_t m3 = fft.real_size(), cs = fft.complex_size();

  std::vector<double> seed_real(m3 * batch);
  Xoshiro256 rng(613 + batch);
  fill_gaussian(rng, seed_real);
  // Produce a consistent (Hermitian) batch spectrum by a forward pass.
  std::vector<Complex> spec_batch(cs * batch);
  fft.forward_batch(seed_real.data(), spec_batch.data(), batch);
  std::vector<Complex> spec_copy = spec_batch;

  std::vector<double> out(m3 * batch);
  fft.inverse_batch(spec_batch.data(), out.data(), batch);

  std::vector<Complex> spec(cs);
  std::vector<double> mesh(m3);
  for (std::size_t q = 0; q < batch; ++q) {
    for (std::size_t t = 0; t < cs; ++t) spec[t] = spec_copy[t * batch + q];
    fft.inverse(spec.data(), mesh.data());
    for (std::size_t t = 0; t < m3; ++t)
      ASSERT_EQ(out[t * batch + q], mesh[t]) << "q=" << q << " t=" << t;
  }
}

TEST_P(Fft3dBatch, BatchRoundTripIsNTimesIdentity) {
  const std::size_t batch = GetParam();
  const std::size_t nx = 6, ny = 4, nz = 6;
  Fft3d fft(nx, ny, nz);
  const double scale = static_cast<double>(nx * ny * nz);
  std::vector<double> in(fft.real_size() * batch);
  Xoshiro256 rng(777 + batch);
  fill_gaussian(rng, in);
  std::vector<Complex> spec(fft.complex_size() * batch);
  std::vector<double> back(in.size());
  fft.forward_batch(in.data(), spec.data(), batch);
  fft.inverse_batch(spec.data(), back.data(), batch);
  for (std::size_t t = 0; t < in.size(); ++t)
    ASSERT_NEAR(back[t], scale * in[t], 1e-9 * scale);
}

INSTANTIATE_TEST_SUITE_P(Batches, Fft3dBatch,
                         ::testing::Values(1u, 2u, 3u, 6u, 12u));

// ---- Golden outputs ----------------------------------------------------------
//
// FNV-1a hashes of forward_batch / inverse_batch outputs on fixed-seed
// inputs, captured from the recursive mixed-radix implementation the
// iterative kernel replaced.  The trajectory goldens depend on every bit of
// these transforms, so any change to the FFT arithmetic (radix order,
// twiddle values, the contraction of a complex product into FMAs) shows up
// here first.  Never recapture them: a mismatch is a bug in the FFT.

struct GoldenCase {
  std::size_t nx, ny, nz, batch;
  std::uint64_t forward_hash, inverse_hash;
};

struct GoldenHashes {
  std::uint64_t forward, inverse;
};

GoldenHashes golden_hashes(const GoldenCase& g) {
  Fft3d fft(g.nx, g.ny, g.nz);
  std::vector<double> in(fft.real_size() * g.batch);
  Xoshiro256 rng(1000 * g.nx + 100 * g.ny + 10 * g.nz + g.batch);
  fill_gaussian(rng, in);
  std::vector<Complex> spec(fft.complex_size() * g.batch);
  fft.forward_batch(in.data(), spec.data(), g.batch);
  GoldenHashes h{};
  h.forward = obs::hash_doubles(
      {reinterpret_cast<const double*>(spec.data()), 2 * spec.size()});
  fft.inverse_batch(spec.data(), in.data(), g.batch);
  h.inverse = obs::hash_doubles(in);
  return h;
}

class Fft3dGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(Fft3dGolden, ReproducesCapturedOutputs) {
  const GoldenCase& g = GetParam();
  const GoldenHashes h = golden_hashes(g);
  EXPECT_EQ(h.forward, g.forward_hash) << std::hex << "0x" << h.forward;
  EXPECT_EQ(h.inverse, g.inverse_hash) << std::hex << "0x" << h.inverse;
}

// Batches 1, 3 and 12 on every grid (neither 3 nor 12 is a multiple of the
// 8-line tile, so tiles straddle mesh points); 48 only at K = 48, which
// keeps the sanitizer builds' memory small.
INSTANTIATE_TEST_SUITE_P(
    Pinned, Fft3dGolden,
    ::testing::Values(
        GoldenCase{18, 18, 18, 1, 0x88299a0913201b3full,
                   0x3762e675b4e10b56ull},
        GoldenCase{18, 18, 18, 3, 0xf562f75f428b0b02ull,
                   0x30399881f69eb4e1ull},
        GoldenCase{18, 18, 18, 12, 0x5152485aded353caull,
                   0x0dab934c69c6ab3eull},
        GoldenCase{48, 48, 48, 1, 0xe7854914b58cb3c5ull,
                   0xfc15831051292f31ull},
        GoldenCase{48, 48, 48, 3, 0xf7c6abf16b1b75c8ull,
                   0xba94fb183177990dull},
        GoldenCase{48, 48, 48, 12, 0x1c9a71523ddc30ebull,
                   0x9721708ec2273a5bull},
        GoldenCase{48, 48, 48, 48, 0xe12ad6c9c7f3f023ull,
                   0xef9d0f2c566a9e6bull},
        GoldenCase{72, 72, 72, 1, 0x4304b4f82ce3a38eull,
                   0x85bc63fa6b4a45cbull},
        GoldenCase{72, 72, 72, 3, 0x1b45d69251841db3ull,
                   0x070f5d6777fbfcacull},
        GoldenCase{72, 72, 72, 12, 0xeea7527fab6ec853ull,
                   0xb94a25c5289092acull},
        GoldenCase{5, 9, 12, 1, 0xb091cb85fea58a8full,
                   0x92e9d4fdbb7f3515ull},
        GoldenCase{5, 9, 12, 3, 0x7af996ed61ea21b9ull,
                   0x5c10a304090167aeull},
        GoldenCase{5, 9, 12, 12, 0x911811d4f486ea74ull,
                   0x5ef174c0d296cdfeull},
        GoldenCase{6, 10, 8, 1, 0x7b1e3b1c778d342cull,
                   0x3212a895bbf49ed8ull},
        GoldenCase{6, 10, 8, 3, 0x8e7f32418ef820e9ull,
                   0x9d2aad0f83bd1a9bull},
        GoldenCase{6, 10, 8, 12, 0x99bc0885333ce594ull,
                   0x1d6f5735f0b751daull}));

TEST(Fft3dThreads, BatchOutputsIdenticalAcrossThreadCounts) {
  const int saved = omp_get_max_threads();
  for (const GoldenCase g : {GoldenCase{18, 18, 18, 12, 0, 0},
                             GoldenCase{5, 9, 12, 3, 0, 0},
                             GoldenCase{48, 48, 48, 3, 0, 0}}) {
    omp_set_num_threads(1);
    const GoldenHashes ref = golden_hashes(g);
    for (int threads : {2, 4}) {
      omp_set_num_threads(threads);
      const GoldenHashes h = golden_hashes(g);
      EXPECT_EQ(h.forward, ref.forward) << "threads=" << threads;
      EXPECT_EQ(h.inverse, ref.inverse) << "threads=" << threads;
    }
  }
  omp_set_num_threads(saved);
}

}  // namespace
}  // namespace hbd
