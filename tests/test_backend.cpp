// MobilityBackend layer (core/backend.hpp): bitwise preservation of the
// historical krylov/wavespace/dense paths through the backend refactor,
// forced-tier overrides and their manifest, TierPolicy hysteresis, the
// factory's kernel/method pairing enforcement, and the v3 checkpoint tier
// fields.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "core/backend.hpp"
#include "core/checkpoint.hpp"
#include "core/forces.hpp"
#include "core/mobility.hpp"
#include "core/simulation.hpp"
#include "core/system.hpp"
#include "obs/flight.hpp"
#include "obs/stream.hpp"
#include "pme/params.hpp"

using namespace hbd;

namespace {

ParticleSystem golden_system(std::size_t n) {
  Xoshiro256 rng(61);
  return suspension_at_volume_fraction(n, 0.2, 1.0, rng);
}

BdConfig golden_config() {
  BdConfig cfg;
  cfg.dt = 1e-3;
  cfg.lambda_rpy = 4;
  cfg.seed = 2014;
  return cfg;
}

std::uint64_t position_hash(const ParticleSystem& sys) {
  const double* p = &sys.positions[0].x;
  return obs::hash_doubles({p, 3 * sys.size()});
}

std::vector<Vec3> wrapped_of(const ParticleSystem& sys) {
  std::vector<Vec3> w;
  sys.wrapped_positions(w);
  return w;
}

}  // namespace

// ---- Tier naming ------------------------------------------------------------

TEST(Backend, TierNamesRoundTrip) {
  for (std::size_t t = 0; t < kMobilityTierCount; ++t) {
    const MobilityTier tier = static_cast<MobilityTier>(t);
    EXPECT_EQ(parse_mobility_tier(mobility_tier_name(tier)), tier);
  }
  EXPECT_THROW(parse_mobility_tier("cholesky"), Error);
}

// ---- Bitwise preservation of the historical paths ---------------------------
//
// Golden hashes captured on the pre-refactor drivers (PR 9): the backend
// refactor must keep the default krylov, wavespace, and dense trajectories
// bitwise identical, with the tier machinery compiled in.

TEST(BackendGolden, KrylovTrajectoryBitwise) {
  ParticleSystem sys = golden_system(64);
  const PmeParams pme = choose_pme_params(sys.box, 1.0, 1e-3);
  auto forces = std::make_shared<RepulsiveHarmonic>(1.0);
  MatrixFreeBdSimulation sim(std::move(sys), forces, golden_config(), pme,
                             1e-2);
  sim.step(10);
  EXPECT_EQ(position_hash(sim.system()), 0x93d4488a6336dd79ull);
}

TEST(BackendGolden, WavespaceTrajectoryBitwise) {
  ParticleSystem sys = golden_system(64);
  const PmeParams pme = choose_pme_params_wavespace(sys.box, 1.0, 1e-3);
  auto forces = std::make_shared<RepulsiveHarmonic>(1.0);
  MatrixFreeBdSimulation sim(std::move(sys), forces, golden_config(), pme,
                             1e-2);
  sim.step(10);
  EXPECT_EQ(position_hash(sim.system()), 0x7e1fecf824c93accull);
}

TEST(BackendGolden, DenseTrajectoryBitwise) {
  ParticleSystem sys = golden_system(32);
  auto forces = std::make_shared<RepulsiveHarmonic>(1.0);
  EwaldBdSimulation sim(std::move(sys), forces, golden_config(), 1e-6);
  sim.step(10);
  EXPECT_EQ(position_hash(sim.system()), 0x0a676c08b11d9116ull);
}

// ---- Forced tier overrides --------------------------------------------------

TEST(BackendTier, ForcedDenseRunsWithoutPme) {
  // dense is the meshless tier: stepping, the drift audit, the stream hook
  // and the roofline export must all cope with pme() == nullptr.
  ParticleSystem sys = golden_system(32);
  const PmeParams pme = choose_pme_params(sys.box, 1.0, 1e-3);
  auto forces = std::make_shared<RepulsiveHarmonic>(1.0);
  MatrixFreeBdSimulation sim(std::move(sys), forces, golden_config(), pme,
                             1e-2);
  EXPECT_EQ(sim.tier(), MobilityTier::pme_krylov);
  sim.set_tier(MobilityTier::dense);
  EXPECT_EQ(sim.tier(), MobilityTier::dense);
  EXPECT_EQ(sim.tier_switches(), 1u);
  EXPECT_EQ(sim.pme(), nullptr);
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string stream_path = (tmp / "hbd_dense_stream.ndjson").string();
  const std::string roof_path = (tmp / "hbd_dense_roofline.json").string();
  if constexpr (obs::kEnabled) {
    obs::StreamWriter::Options opts;
    opts.path = stream_path;
    opts.interval = 2;
    sim.enable_stream(opts);
  }
  sim.step(6);
  for (const Vec3& p : sim.system().positions) {
    EXPECT_TRUE(std::isfinite(p.x));
    EXPECT_TRUE(std::isfinite(p.y));
    EXPECT_TRUE(std::isfinite(p.z));
  }
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(sim.stream()->pushed(), 6u);
    EXPECT_TRUE(sim.write_roofline_json(roof_path));
    std::filesystem::remove(roof_path);
  }
  // Mid-run switch back to the native tier restores the PME operator.
  sim.set_tier(MobilityTier::pme_krylov);
  EXPECT_EQ(sim.tier_switches(), 2u);
  sim.step(2);
  EXPECT_NE(sim.pme(), nullptr);
  EXPECT_EQ(sim.manifest().mobility_tier, "pme_krylov");
  EXPECT_EQ(sim.manifest().tier_switches, 2u);
  if constexpr (obs::kEnabled) {
    sim.stream()->stop();
    std::filesystem::remove(stream_path);
  }
}

TEST(BackendTier, NonNativePmeRoundTripRestoresParams) {
  // Returning to the native tier restores the caller's configuration bit
  // for bit, including fields the tier's own chooser would set otherwise.
  ParticleSystem sys = golden_system(32);
  PmeParams pme = choose_pme_params(sys.box, 1.0, 1e-3);
  pme.skin = 0.4;
  pme.storage = NearFieldStorage::symmetric;
  pme.precompute_interp = false;
  auto forces = std::make_shared<RepulsiveHarmonic>(1.0);
  MatrixFreeBdSimulation sim(std::move(sys), forces, golden_config(), pme,
                             1e-2);
  sim.set_tier(MobilityTier::pse_wavespace);
  sim.step(2);
  ASSERT_NE(sim.pme(), nullptr);
  EXPECT_EQ(sim.pme()->params().brownian, BrownianMethod::wavespace);
  sim.set_tier(MobilityTier::pme_krylov);
  sim.step(2);
  EXPECT_EQ(sim.tier_switches(), 2u);
  ASSERT_NE(sim.pme(), nullptr);
  const PmeParams& p = sim.pme()->params();
  EXPECT_EQ(p.mesh, pme.mesh);
  EXPECT_EQ(p.order, pme.order);
  EXPECT_EQ(p.rmax, pme.rmax);
  EXPECT_EQ(p.xi, pme.xi);
  EXPECT_EQ(p.skin, pme.skin);
  EXPECT_EQ(p.precompute_interp, pme.precompute_interp);
  EXPECT_EQ(p.interp, pme.interp);
  EXPECT_EQ(p.storage, pme.storage);
  EXPECT_EQ(p.partial_rebuilds, pme.partial_rebuilds);
  EXPECT_EQ(p.auto_skin, pme.auto_skin);
  EXPECT_EQ(p.auto_skin_interval, pme.auto_skin_interval);
  EXPECT_EQ(p.precision, pme.precision);
  EXPECT_EQ(p.brownian, pme.brownian);
  EXPECT_EQ(p.kernel, pme.kernel);
  EXPECT_EQ(sim.neighbor_list().cutoff(), pme.rmax);
}

TEST(BackendTier, ManifestNamesTheActiveSampler) {
  // brownian_method follows the tier that actually samples, not the
  // native PmeParams: a forced dense tier samples by Cholesky, exactly as
  // EwaldBdSimulation reports.
  ParticleSystem sys = golden_system(16);
  const PmeParams pme = choose_pme_params(sys.box, 1.0, 1e-3);
  MatrixFreeBdSimulation sim(std::move(sys), nullptr, golden_config(), pme,
                             1e-2);
  EXPECT_EQ(sim.manifest().brownian_method, "krylov");
  sim.set_tier(MobilityTier::pse_wavespace);
  EXPECT_EQ(sim.manifest().brownian_method, "wavespace");
  sim.set_tier(MobilityTier::dense);
  EXPECT_EQ(sim.manifest().brownian_method, "cholesky");
  sim.set_tier(MobilityTier::pme_krylov);
  EXPECT_EQ(sim.manifest().brownian_method, "krylov");
  EwaldBdSimulation dense(golden_system(8), nullptr, golden_config());
  EXPECT_EQ(dense.manifest().brownian_method, "cholesky");
}

TEST(BackendTier, ForcingNativeTierIsNoop) {
  ParticleSystem sys = golden_system(16);
  const PmeParams pme = choose_pme_params(sys.box, 1.0, 1e-3);
  MatrixFreeBdSimulation sim(std::move(sys), nullptr, golden_config(), pme,
                             1e-2);
  sim.set_tier(MobilityTier::pme_krylov);
  EXPECT_EQ(sim.tier_switches(), 0u);
}

// ---- TierPolicy -------------------------------------------------------------

namespace {

std::vector<TierPolicy::Candidate> default_candidates() {
  // Costs ordered wavespace < krylov < dense, accuracies the tier defaults
  // — the generic large-n landscape.
  return {
      {MobilityTier::pse_wavespace,
       tier_default_ep(MobilityTier::pse_wavespace), 5.0},
      {MobilityTier::pme_krylov, tier_default_ep(MobilityTier::pme_krylov),
       10.0},
      {MobilityTier::dense, tier_default_ep(MobilityTier::dense), 1000.0},
  };
}

}  // namespace

TEST(TierPolicy, PicksCheapestWithinBudget) {
  TierPolicy loose(ErrorBudget{1e-1});
  EXPECT_EQ(loose.choose(default_candidates()), MobilityTier::pse_wavespace);
  // Cost, not list order, decides among the tiers that fit.
  auto cands = default_candidates();
  cands[1].cost = 1.0;
  TierPolicy mid(ErrorBudget{1e-3});
  EXPECT_EQ(mid.choose(cands), MobilityTier::pme_krylov);
  TierPolicy tight(ErrorBudget{1e-6});
  EXPECT_EQ(tight.choose(default_candidates()), MobilityTier::dense);
}

TEST(TierPolicy, InfeasibleBudgetFallsBackToFinest) {
  TierPolicy policy(ErrorBudget{1e-9});
  EXPECT_EQ(policy.choose(default_candidates()), MobilityTier::dense);
}

TEST(TierPolicy, ProbeViolationBarsAndPromotes) {
  TierPolicy policy(ErrorBudget{1e-3});
  ASSERT_EQ(policy.choose(default_candidates()), MobilityTier::pse_wavespace);
  // Probed e_p blows the budget: the tier is barred permanently and the
  // next routing point promotes past it.
  EXPECT_TRUE(policy.record_probe(MobilityTier::pse_wavespace, 2e-3));
  EXPECT_TRUE(policy.barred(MobilityTier::pse_wavespace));
  EXPECT_EQ(policy.choose(default_candidates()), MobilityTier::pme_krylov);
  // No ping-pong: the barred tier is never chosen again, however many
  // routing points pass.
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(policy.choose(default_candidates()), MobilityTier::pme_krylov);
  // A healthy probe of the new tier changes nothing.
  EXPECT_FALSE(policy.record_probe(MobilityTier::pme_krylov, 5e-4));
  EXPECT_EQ(policy.choose(default_candidates()), MobilityTier::pme_krylov);
}

TEST(TierPolicy, DemotionRequiresDwell) {
  // Start on a fine tier (tight budget), then loosen conditions by offering
  // a cheaper candidate: the demotion must wait out min_dwell choices.
  TierPolicy::Config cfg;
  cfg.min_dwell = 2;
  // Budget 2e-3 leaves the mesh tiers margin under demote_margin — a
  // candidate sitting exactly at the budget is (correctly) never a demotion
  // target.
  TierPolicy policy(ErrorBudget{2e-3}, cfg);
  auto cands = default_candidates();
  ASSERT_EQ(policy.choose(cands), MobilityTier::pse_wavespace);
  // Make krylov cheaper than wavespace: a lateral/demote move.
  cands[1].cost = 0.5;
  EXPECT_EQ(policy.choose(cands), MobilityTier::pse_wavespace);  // dwell 1
  EXPECT_EQ(policy.choose(cands), MobilityTier::pme_krylov);     // dwell met
  EXPECT_EQ(policy.switches(), 1u);
}

TEST(TierPolicy, RoutedSimulationAdoptsAndValidatesTier) {
  // End-to-end: a budget only the dense tier fits promotes the pme_krylov
  // native run at its first rebuild, and the probes keep validating the
  // adopted tier without barring it.
  ParticleSystem sys = golden_system(32);
  const PmeParams pme = choose_pme_params(sys.box, 1.0, 1e-3);
  auto forces = std::make_shared<RepulsiveHarmonic>(1.0);
  MatrixFreeBdSimulation sim(std::move(sys), forces, golden_config(), pme,
                             1e-2);
  sim.set_error_budget(1e-5);
  sim.step(8);
  EXPECT_EQ(sim.tier(), MobilityTier::dense);
  EXPECT_EQ(sim.tier_switches(), 1u);
  ASSERT_NE(sim.tier_policy(), nullptr);
  EXPECT_FALSE(sim.tier_policy()->barred(MobilityTier::dense));
  if constexpr (obs::kEnabled) {
    ASSERT_FALSE(sim.health().ep_history().empty());
    EXPECT_LE(sim.health().ep_max(), 1e-5);
  }
  EXPECT_DOUBLE_EQ(sim.manifest().error_budget, 1e-5);
  // A loose budget lets the perf model pick among all three tiers; the
  // choice must fit the budget and survive its probes.
  ParticleSystem sys2 = golden_system(32);
  MatrixFreeBdSimulation sim2(std::move(sys2), forces, golden_config(), pme,
                              1e-2);
  sim2.set_error_budget(1e-1);
  sim2.step(8);
  EXPECT_LE(tier_default_ep(sim2.tier()), 1e-1);
  EXPECT_FALSE(sim2.tier_policy()->barred(sim2.tier()));
}

// ---- Factory pairing enforcement -------------------------------------------

TEST(BackendFactory, RejectsMismatchedKernelMethodPairs) {
  ParticleSystem sys = golden_system(16);
  auto nlist = std::make_shared<NeighborList>(sys.box, 3.0, 0.5);
  KrylovConfig krylov;
  // krylov tier with wavespace-sampling params.
  PmeParams bad = choose_pme_params_wavespace(sys.box, 1.0, 1e-3);
  EXPECT_THROW(make_mobility_backend(MobilityTier::pme_krylov, sys.size(),
                                     sys.box, sys.radius, bad, krylov, nlist),
               Error);
  // wavespace tier with the Beenakker-kernel krylov params.
  PmeParams bad2 = choose_pme_params(sys.box, 1.0, 1e-3);
  EXPECT_THROW(make_mobility_backend(MobilityTier::pse_wavespace, sys.size(),
                                     sys.box, sys.radius, bad2, krylov,
                                     nlist),
               Error);
  // Matched pairs construct fine.
  EXPECT_NO_THROW(make_mobility_backend(MobilityTier::pse_wavespace,
                                        sys.size(), sys.box, sys.radius, bad,
                                        krylov, nlist));
  EXPECT_NO_THROW(make_mobility_backend(MobilityTier::dense, sys.size(),
                                        sys.box, sys.radius, bad2, krylov,
                                        nullptr));
}

TEST(BackendFactory, ParamsForTierEnforcePairing) {
  const double box = 12.0;
  const PmeParams pk = pme_params_for_tier(MobilityTier::pme_krylov, box, 1.0,
                                           1e-3);
  EXPECT_EQ(pk.brownian, BrownianMethod::krylov);
  EXPECT_EQ(pk.kernel, EwaldKernel::beenakker);
  const PmeParams pw = pme_params_for_tier(MobilityTier::pse_wavespace, box,
                                           1.0, 1e-3);
  EXPECT_EQ(pw.brownian, BrownianMethod::wavespace);
  EXPECT_EQ(pw.kernel, EwaldKernel::pse);
  EXPECT_THROW(pme_params_for_tier(MobilityTier::dense, box, 1.0, 1e-3),
               Error);
}

// ---- Stale-view hazard ------------------------------------------------------

TEST(MobilityView, StaleViewAssertsAfterRebuild) {
  ParticleSystem sys = golden_system(16);
  const std::vector<Vec3> wrapped = wrapped_of(sys);
  PmeOperator pme(wrapped, sys.box, sys.radius,
                  choose_pme_params(sys.box, 1.0, 1e-3));
  PmeMobility mob(pme);
  const std::size_t d = 3 * sys.size();
  Matrix x(d, 1), y(d, 1);
  EXPECT_NO_THROW(mob.apply_block(x, y));
  pme.update(wrapped);  // rebuild invalidates every outstanding view
  EXPECT_THROW(mob.apply_block(x, y), Error);
  NearFieldMobility near(pme);
  EXPECT_NO_THROW(near.apply_block(x, y));
  pme.update(wrapped);
  EXPECT_THROW(near.apply_block(x, y), Error);
}

// ---- Checkpoint v3 ----------------------------------------------------------

TEST(BackendCheckpoint, V3RoundTripsTierFields) {
  ParticleSystem sys = golden_system(12);
  obs::RunManifest m = obs::RunManifest::build_info();
  m.particles = sys.size();
  m.mobility_tier = "dense";
  m.tier_switches = 3;
  m.error_budget = 5e-2;
  const std::string path =
      (std::filesystem::temp_directory_path() / "hbd_backend_ckpt.bin")
          .string();
  save_checkpoint(path, {sys, 42, 7, m});
  const Checkpoint cp = load_checkpoint(path);
  std::filesystem::remove(path);
  EXPECT_EQ(cp.manifest.mobility_tier, "dense");
  EXPECT_EQ(cp.manifest.tier_switches, 3u);
  EXPECT_DOUBLE_EQ(cp.manifest.error_budget, 5e-2);
}

TEST(BackendCheckpoint, V2CheckpointStillLoads) {
  // A pre-tier (v2) file: same layout up to the manifest's hardware tail,
  // no tier fields; loads with the default tier values.
  ParticleSystem sys = golden_system(5);
  const std::string path =
      (std::filesystem::temp_directory_path() / "hbd_backend_ckpt_v2.bin")
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    out.write("HBDCKPT2", 8);
    auto pod = [&out](const auto& v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    auto str = [&](const std::string& s) {
      const std::uint64_t len = s.size();
      pod(len);
      out.write(s.data(), static_cast<std::streamsize>(s.size()));
    };
    pod(sys.box);
    pod(sys.radius);
    const std::size_t steps = 9;
    const std::uint64_t seed = 17;
    pod(steps);
    pod(seed);
    const std::size_t n = sys.size();
    pod(n);
    out.write(reinterpret_cast<const char*>(sys.positions.data()),
              static_cast<std::streamsize>(n * sizeof(Vec3)));
    // v2 manifest: version..skin block, then the hardware tail and nothing
    // after it (mirrors the pre-v3 write_manifest field order).
    str("v2-test");
    str("gcc");
    str("-O2");
    str("Release");
    pod(static_cast<std::uint8_t>(1));
    pod(static_cast<std::int64_t>(1));        // omp_threads
    pod(static_cast<std::uint64_t>(17));      // seed
    pod(1e-4);                                // dt
    pod(1.0);                                 // kbt
    pod(1.0);                                 // mu0
    pod(static_cast<std::size_t>(16));        // lambda_rpy
    pod(n);                                   // particles
    pod(sys.box);
    pod(sys.radius);
    pod(static_cast<std::size_t>(32));        // mesh
    pod(static_cast<std::int64_t>(6));        // order
    pod(3.5);                                 // rmax
    pod(0.7);                                 // xi
    pod(0.4);                                 // skin
    str("westmere-ep");
    pod(160.0);
    pod(42.0);
  }
  const Checkpoint cp = load_checkpoint(path);
  std::filesystem::remove(path);
  EXPECT_EQ(cp.steps_taken, 9u);
  EXPECT_EQ(cp.manifest.version, "v2-test");
  EXPECT_EQ(cp.manifest.hw_name, "westmere-ep");
  // Tier fields default when absent from the file.
  EXPECT_EQ(cp.manifest.mobility_tier, "pme_krylov");
  EXPECT_EQ(cp.manifest.tier_switches, 0u);
  EXPECT_DOUBLE_EQ(cp.manifest.error_budget, 0.0);
}
