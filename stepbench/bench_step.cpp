// Step-ledger benchmark: wall seconds per Brownian-dynamics step of the
// matrix-free driver (MatrixFreeBdSimulation: the paper's Algorithm 2 and
// the fidelity tiers built on it) at a stated accuracy.  The paper reports
// its results the same way (Fig. 8, Table II): per step, with the mobility
// rebuild and the Brownian sampling amortized over λ_RPY steps.
//
// One process runs one configuration.  A suspension generated from --seed
// (Φ = 0.2, a = 1, RepulsiveHarmonic contacts, dt = 1e-4, λ_RPY = 16) is
// stepped in a closed loop with MatrixFreeBdSimulation::step(1), each call
// timed.  Step 0 builds the operator and draws the first Brownian block; it
// is warm-up.  Windows of λ_RPY steps are then measured until their summed
// wall reaches --seconds (at least one window): any λ_RPY consecutive
// steps hold exactly one mobility rebuild, so each window carries its
// amortized share.  The time bound keeps a run's length fixed on a slow
// host; the trajectory, and with it every check, depends only on the seed
// and the number of windows.  After the measured simulation the set-up
// (PME parameter choice, driver construction, set_tier, first operator
// build) is timed --setups times from the same input.
//
// --traced adds the layer ledger.  The steps are the same; the driver's own
// spans (obs::Tracer::global(), on by default) are read back after the
// windows and split per window into the driver's phases, and the
// PmeOperator phase timers and apply counts are read between windows.  The
// spans go out as Chrome trace JSON at --trace-out.
//
// After the windows the run checks its own output: e_p of a fresh backend
// at the final positions against a high-resolution PME reference, and the
// short-time self-diffusion of the measured per-step increments against
// the Hasimoto self mobility.  The result is one JSON object on stdout,
// read by stepbench/run_bench.py.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "core/backend.hpp"
#include "core/forces.hpp"
#include "core/simulation.hpp"
#include "core/system.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "pme/validate.hpp"

namespace {

using namespace hbd;

// The suspension and integrator of every workload (paper Sec. V-C).
constexpr double kPhi = 0.2;
constexpr double kRadius = 1.0;
constexpr double kDt = 1e-4;
constexpr std::size_t kLambda = 16;
constexpr double kEpTarget = 1e-3;  // PME parameter chooser target
constexpr double kKrylovTol = 1e-2;
constexpr std::size_t kEpSamples = 4;

// The driver's spans inside bd.step (src/core/simulation.cpp) → ledger
// layer.  bd.sample nests in bd.rebuild and is subtracted from it, so the
// layers are disjoint; the other five are the children of bd.propagate.
constexpr std::pair<const char*, const char*> kLayerSpans[] = {
    {"bd.rebuild", "core.rebuild"}, {"bd.sample", "core.sample"},
    {"bd.wrap", "common.wrap"},     {"bd.neighbor", "common.neighbor"},
    {"bd.forces", "core.forces"},   {"bd.apply", "core.apply"},
    {"bd.integrate", "core.integrate"}};

// PmeOperator phase timers → ledger layer (the module owning the kernel).
// The phases are disjoint and run inside core.sample and core.apply.
constexpr std::pair<const char*, const char*> kPmePhases[] = {
    {"spreading", "pme.spreading"},
    {"fft", "fft.fft"},
    {"influence", "pme.influence"},
    {"ifft", "fft.ifft"},
    {"interpolation", "pme.interpolation"},
    {"realspace", "sparse.realspace"},
    {"wave_sample", "pme.wave_sample"}};

struct Options {
  MobilityTier tier = MobilityTier::pme_krylov;
  std::size_t n = 1000;
  double seconds = 0.0;
  std::size_t setups = 1;
  std::uint64_t seed = 2014;
  bool traced = false;
  std::string trace_out = "trace.json";
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "bench_step: %s\n"
               "usage: bench_step --tier T --n N --seconds S [--setups K] "
               "[--seed S] [--traced --trace-out PATH]\n",
               msg.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--traced") {
      o.traced = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--tier")
      o.tier = parse_mobility_tier(v);
    else if (arg == "--n")
      o.n = std::stoul(v);
    else if (arg == "--seconds")
      o.seconds = std::stod(v);
    else if (arg == "--setups")
      o.setups = std::stoul(v);
    else if (arg == "--seed")
      o.seed = std::stoull(v);
    else if (arg == "--trace-out")
      o.trace_out = v;
    else
      usage("unknown option " + arg);
  }
  if (o.n < 2 || !(o.seconds >= 0.0))
    usage("need --n >= 2 and --seconds >= 0");
  return o;
}

ParticleSystem make_input(const Options& o) {
  Xoshiro256 rng(o.seed);
  return suspension_at_volume_fraction(o.n, kPhi, kRadius, rng);
}

BdConfig make_config(const Options& o) {
  BdConfig c;
  c.dt = kDt;
  c.lambda_rpy = kLambda;
  // A stream of its own: the noise must not replay the draws that placed
  // the particles.
  c.seed = o.seed + 1;
  return c;
}

bool is_pme_tier(MobilityTier t) {
  return t == MobilityTier::pme_krylov || t == MobilityTier::pse_wavespace;
}

/// The tier the driver is constructed on: the meshless tiers are reached
/// through set_tier from a pme_krylov driver.
MobilityTier native_tier(MobilityTier t) {
  return is_pme_tier(t) ? t : MobilityTier::pme_krylov;
}

PmeParams native_params(MobilityTier t, const ParticleSystem& s) {
  return pme_params_for_tier(native_tier(t), s.box, s.radius, kEpTarget);
}

/// The measured driver, on the workload's tier.
std::unique_ptr<MatrixFreeBdSimulation> make_simulation(
    const Options& o, const ParticleSystem& input, BdConfig cfg) {
  auto sim = std::make_unique<MatrixFreeBdSimulation>(
      input, std::make_shared<RepulsiveHarmonic>(kRadius), cfg,
      native_params(o.tier, input), kKrylovTol);
  if (o.tier != native_tier(o.tier)) sim->set_tier(o.tier);
  return sim;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Periodic RPY self mobility in units of μ0 (Hasimoto; docs/theory.md §13):
/// the exact diagonal of M̃, so E|Δr|² = 6·kBT·μ0·h·dt per step.
double hasimoto_self_mobility(double box, double radius) {
  const double al = radius / box;
  return 1.0 - 2.837297 * al + (4.0 * std::numbers::pi / 3.0) * al * al * al;
}

/// Short-time self-diffusion of the measured per-step increments: the
/// mean over steps of Σ_i |Δr_i|² against its expectation 6·dt·h·n.
class Increments {
 public:
  void before(const std::vector<Vec3>& p) { prev_ = p; }
  void after(const std::vector<Vec3>& p) {
    double sum = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) sum += norm2(p[i] - prev_[i]);
    per_step_.push_back(sum);
  }

  /// measured / expected − 1 (signed).
  double d_short_dev(const ParticleSystem& s) const {
    return mean() / expected(s) - 1.0;
  }
  /// Standard error of d_short_dev from the spread of the per-step sums.
  /// Steps draw independent noise columns, so the sums are independent;
  /// the spread carries the hydrodynamic correlations between particles,
  /// which make the estimator several times noisier than n independent
  /// particles would.
  double d_short_se(const ParticleSystem& s) const {
    const double m = mean();
    const double k = static_cast<double>(per_step_.size());
    if (per_step_.size() < 2) return std::numeric_limits<double>::infinity();
    double var = 0.0;
    for (double x : per_step_) var += (x - m) * (x - m);
    var /= k - 1.0;
    return std::sqrt(var / k) / expected(s);
  }

 private:
  double mean() const {
    double sum = 0.0;
    for (double x : per_step_) sum += x;
    return sum / static_cast<double>(per_step_.size());
  }
  static double expected(const ParticleSystem& s) {
    return 6.0 * kDt * hasimoto_self_mobility(s.box, s.radius) *
           static_cast<double>(s.size());
  }

  std::vector<Vec3> prev_;
  std::vector<double> per_step_;
};

/// e_p of a fresh backend of `tier` at the final positions against a
/// high-resolution PME reference operator.
double check_ep(MobilityTier tier, const ParticleSystem& s) {
  const std::vector<Vec3> wrapped = s.wrapped_positions();
  const PmeParams pp = native_params(tier, s);
  auto nlist = is_pme_tier(tier)
                   ? std::make_shared<NeighborList>(s.box, pp.rmax, pp.skin)
                   : nullptr;
  KrylovConfig kc;
  kc.tolerance = kKrylovTol;
  auto backend = make_mobility_backend(tier, s.size(), s.box, s.radius, pp, kc,
                                       nlist);
  backend->rebuild(wrapped);
  PmeOperator reference(wrapped, s.box, s.radius,
                        reference_pme_params(s.box, s.radius));
  return measure_backend_error(*backend, reference, kEpSamples);
}

std::uint64_t position_hash(const ParticleSystem& s) {
  return obs::hash_doubles({&s.positions[0].x, 3 * s.size()});
}

/// Per-window layer ledger of a traced run: seconds per layer and counts,
/// one entry per measured window.  The counters are read between windows;
/// the driver's spans are split by window once the windows are done.
class Ledger {
 public:
  void begin_window(const MatrixFreeBdSimulation& sim) { begin_ = mark(sim); }

  void end_window(const MatrixFreeBdSimulation& sim, double wall) {
    const Mark end = mark(sim);
    windows_.push_back({begin_.t, end.t, wall});
    for (const auto& [phase, layer] : kPmePhases)
      add(std::string(layer) + "_s",
          phase_s(end, phase) - phase_s(begin_, phase));
    add("pme.single_applies",
        static_cast<double>(end.counts.single - begin_.counts.single));
    add("pme.block_columns", static_cast<double>(end.counts.block_columns -
                                                 begin_.counts.block_columns));
    add("common.neighbor_rebuilds",
        static_cast<double>(end.neighbor_builds - begin_.neighbor_builds));
    add("core.sample_iters",
        static_cast<double>(sim.last_krylov_stats().iterations));
  }

  /// Splits the driver's spans into the windows: self seconds per layer and
  /// the part of the timed wall no span covers.
  void attribute(const std::vector<obs::TraceEvent>& events) {
    for (const Window& w : windows_) {
      std::map<std::string, double> secs;
      for (const auto& [span, layer] : kLayerSpans) secs[layer] = 0.0;
      for (const obs::TraceEvent& e : events) {
        if (e.t0 < w.begin || e.t0 >= w.end) continue;
        for (const auto& [span, layer] : kLayerSpans)
          if (std::string_view(e.name) == span) secs[layer] += e.dur;
      }
      secs["core.rebuild"] -= secs["core.sample"];
      double attributed = 0.0;
      for (const auto& [layer, s] : secs) {
        add(layer + "_s", s);
        attributed += s;
      }
      add("wall_s", w.wall);
      add("unattributed_s", w.wall - attributed);
    }
  }

  void write_json(obs::JsonWriter& w) const {
    w.begin_object();
    for (const auto& [key, values] : series_) {
      w.key(key);
      w.begin_array();
      for (double v : values) w.value(v);
      w.end_array();
    }
    w.end_object();
  }

 private:
  struct Mark {
    double t = 0.0;  ///< tracer clock
    std::map<std::string, double> phases;
    PmeOperator::ApplyCounts counts;
    std::uint64_t neighbor_builds = 0;
  };
  struct Window {
    double begin, end, wall;
  };

  static Mark mark(const MatrixFreeBdSimulation& sim) {
    Mark m;
    m.t = obs::Tracer::global().now();
    if (const PmeOperator* pme = sim.pme()) {
      m.phases = pme->timers().totals();
      m.counts = pme->apply_counts();
    }
    m.neighbor_builds = sim.neighbor_list().build_count();
    return m;
  }
  static double phase_s(const Mark& m, const char* phase) {
    const auto it = m.phases.find(phase);
    return it == m.phases.end() ? 0.0 : it->second;
  }
  void add(const std::string& key, double v) { series_[key].push_back(v); }

  Mark begin_;
  std::vector<Window> windows_;
  std::map<std::string, std::vector<double>> series_;
};

struct Result {
  std::vector<double> setup_s;
  std::vector<double> window_s;  ///< per measured window: Σ step walls
  std::uint64_t attempted = 0;   ///< measured steps begun
  std::uint64_t completed = 0;
  double peak_rss_mb = 0.0;
  double mobility_mb = 0.0;
  double ep = std::numeric_limits<double>::quiet_NaN();
  double d_short_dev = std::numeric_limits<double>::quiet_NaN();
  double d_short_se = std::numeric_limits<double>::quiet_NaN();
  int sample_iters = 0;  ///< Krylov iterations of the last rebuild
  double model_step_s = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t traj_hash = 0;
};

void write_result(const Options& o, const Result& r, const Ledger* ledger) {
  obs::JsonWriter w(std::cout);
  const auto array = [&](const char* key, const std::vector<double>& v) {
    w.key(key);
    w.begin_array();
    for (double x : v) w.value(x);
    w.end_array();
  };
  w.begin_object();
  w.field("tier", mobility_tier_name(o.tier));
  w.field("n", static_cast<double>(o.n));
  w.field("seed", static_cast<double>(o.seed));
  w.field("lambda_rpy", static_cast<double>(kLambda));
  w.key("traced");
  w.value(o.traced);
  array("setup_s", r.setup_s);
  array("window_s", r.window_s);
  w.field("steps_attempted", static_cast<double>(r.attempted));
  w.field("steps_failed", static_cast<double>(r.attempted - r.completed));
  w.field("peak_rss_mb", r.peak_rss_mb);
  w.field("mobility_mb", r.mobility_mb);
  w.field("ep", r.ep);
  w.field("d_short_dev", r.d_short_dev);
  w.field("d_short_se", r.d_short_se);
  w.field("sample_iters", r.sample_iters);
  w.field("model_step_s", r.model_step_s);
  w.field("traj_hash", obs::hex_u64(r.traj_hash));
  w.key("manifest");
  obs::run_manifest().write_json(w);
  if (ledger) {
    w.key("ledger");
    ledger->write_json(w);
  }
  w.end_object();
  std::cout << "\n";
}

/// One set-up through the driver: PME parameter choice, construction,
/// set_tier, and one athermal step, which builds the operator and makes the
/// first apply without drawing a Brownian block (that block costs what
/// every rebuild's does, and step_s counts it already).
double time_setup(const Options& o, const ParticleSystem& input) {
  BdConfig cfg = make_config(o);
  cfg.kbt = 0.0;
  const Timer t;
  make_simulation(o, input, cfg)->step(1);
  return t.seconds();
}

/// The measured simulation: warm-up, the timed windows, and the checks on
/// the positions it ends at.
void measure(const Options& o, const ParticleSystem& input, Result& r,
             std::optional<Ledger>& ledger) {
  const auto owned = make_simulation(o, input, make_config(o));
  MatrixFreeBdSimulation& sim = *owned;
  obs::Tracer& tracer = obs::Tracer::global();
  Increments inc;
  try {
    sim.step(1);  // warm-up
    tracer.clear();
    double measured = 0.0;
    do {
      if (ledger) ledger->begin_window(sim);
      double wall = 0.0;
      for (std::size_t s = 0; s < kLambda; ++s) {
        inc.before(sim.system().positions);
        ++r.attempted;
        const Timer t;
        sim.step(1);
        wall += t.seconds();
        inc.after(sim.system().positions);
        ++r.completed;
      }
      measured += wall;
      r.window_s.push_back(wall);
      if (ledger) ledger->end_window(sim, wall);
    } while (measured < o.seconds);
  } catch (const NumericalException& e) {
    std::fprintf(stderr, "bench_step: step failed: %s\n", e.what());
  }
  if (ledger) {
    if (tracer.recorded() == 0 || tracer.dropped() != 0)
      throw std::runtime_error(
          std::to_string(tracer.recorded()) + " spans recorded, " +
          std::to_string(tracer.dropped()) +
          " dropped: the ledger needs every span of the measured windows");
    ledger->attribute(tracer.snapshot());
    if (!tracer.write_chrome_trace(o.trace_out))
      std::fprintf(stderr, "bench_step: cannot write %s\n",
                   o.trace_out.c_str());
  }
  if (r.completed != r.attempted) return;
  r.peak_rss_mb = peak_rss_mb();  // before the checks' own allocations
  r.mobility_mb = static_cast<double>(sim.mobility_bytes()) / 1e6;
  r.sample_iters = sim.last_krylov_stats().iterations;
  if (sim.pme()) r.model_step_s = sim.model_step().cpu_only;
  const ParticleSystem& final_state = sim.system();
  r.traj_hash = position_hash(final_state);
  r.d_short_dev = inc.d_short_dev(final_state);
  r.d_short_se = inc.d_short_se(final_state);
  r.ep = check_ep(o.tier, final_state);
}

int run(const Options& o) {
  const ParticleSystem input = make_input(o);
  Result r;
  std::optional<Ledger> ledger;
  if (o.traced) ledger.emplace();
  measure(o, input, r, ledger);
  // The set-ups run after the measured simulation has read its peak RSS:
  // what they leave in the heap must not count toward it.
  for (std::size_t k = 0; k < o.setups; ++k)
    r.setup_s.push_back(time_setup(o, input));
  write_result(o, r, ledger ? &*ledger : nullptr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_step: %s\n", e.what());
    return 1;
  }
}
