// End-to-end benchmark driver.  One process runs one repetition of one
// workload — build the solver (setup), solve, verify the answer — and
// prints one JSON line with the phase times and the figures run.py needs.
// run.py starts a fresh process per repetition and reports medians.
//
//   perfbench_e2e gmg      --n=256 [--cap=20] [--solves=1] [--corrupt]
//   perfbench_e2e mgcg     --n=128 [--cap=40] [--solves=1] [--corrupt]
//   perfbench_e2e distsim  --n=128 --sweeps=60 --seed=7 [--corrupt]
//   perfbench_e2e warm-cc  (compile one small unrelated kernel, untimed)
//
// Phases are wrapped in bench:rep / bench:setup / bench:solve /
// bench:verify trace spans, so a run under SNOWFLAKE_TRACE shows which
// program spans fall in which phase and how much time none of them cover.
// --corrupt perturbs the answer after the solve: the verification must
// then fail, which run.py counts as a failed repetition.
//
// The solve is printed as samples: one per solve for gmg and mgcg
// (--solves=k repeats the solve from a zero guess k times after one
// setup), one per sweep for distsim.  run.py pools the samples of all
// repetitions and reports units_per_solve x their median, so a burst of
// lost CPU time in one sweep or one solve does not move the figure.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "backend/distsim/distsim_backend.hpp"
#include "ir/stencil_library.hpp"
#include "multigrid/operators.hpp"
#include "multigrid/solver.hpp"
#include "solver/krylov.hpp"
#include "trace/trace.hpp"

using namespace snowflake;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Max-norm relative residual that ends the GMG and MG-CG solves.
constexpr double kRtol = 1e-8;
/// Manufactured-solution tolerance on |x - u*|_inf (measured ~3e-11).
constexpr double kErrorTol = 1e-9;
/// distsim vs the sequential `c` backend on the same two sweeps.
constexpr double kAgreeTol = 1e-12;

struct Options {
  std::string workload;
  std::int64_t n = 32;
  std::uint64_t seed = 1;
  int cap = 30;     // V-cycle / CG iteration cap
  int sweeps = 60;  // distsim timed sweeps
  int solves = 1;   // gmg / mgcg solves per setup
  bool corrupt = false;
};

struct Result {
  double setup_s = 0.0;
  std::vector<double> samples;  // per-solve (gmg, mgcg) or per-sweep (distsim) seconds
  int units_per_solve = 1;      // samples that make up one solve
  double verify_s = 0.0;
  int iterations = 0;
  std::int64_t dof = 0;
  double error = 0.0;
  bool ok = false;
  std::string why;
  double halo_bytes = 0.0;
  std::int64_t halo_messages = 0;
  double stall_s = 0.0;  // summed over ranks
};

bool take(const std::string& arg, const char* key, std::string* value) {
  const std::string prefix = std::string("--") + key + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

Options parse(int argc, char** argv) {
  if (argc < 2) throw std::runtime_error("usage: perfbench_e2e <workload> [--key=value...]");
  Options o;
  o.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (take(arg, "n", &v)) {
      o.n = std::stoll(v);
    } else if (take(arg, "seed", &v)) {
      o.seed = std::stoull(v);
    } else if (take(arg, "cap", &v)) {
      o.cap = std::stoi(v);
    } else if (take(arg, "sweeps", &v)) {
      o.sweeps = std::stoi(v);
    } else if (take(arg, "solves", &v)) {
      o.solves = std::stoi(v);
    } else if (arg == "--corrupt") {
      o.corrupt = true;
    } else {
      throw std::runtime_error("unknown argument " + arg);
    }
  }
  if (o.n < 2 || o.cap < 1 || o.sweeps < 1 || o.solves < 1) {
    throw std::runtime_error("--n must be >= 2 and --cap, --sweeps, --solves >= 1");
  }
  return o;
}

mg::ProblemSpec spec_of(const Options& o) {
  mg::ProblemSpec spec;
  spec.rank = 3;
  spec.n = o.n;
  return spec;
}

/// The interior cell at the middle of the box (where --corrupt strikes).
Index centre(const Options& o) { return Index(3, o.n / 2); }

/// Fig. 9 HPGMG: V(2,2) GSRB, openmp + fuse_colors, zero guess to a
/// max-norm relative residual of kRtol.
Result run_gmg(const Options& o) {
  Result r;
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<mg::Solver> solver;
  {
    trace::Span span("bench:setup", "bench");
    mg::Solver::Config cfg;
    cfg.problem = spec_of(o);
    cfg.backend = "openmp";
    cfg.options.fuse_colors = true;
    solver = std::make_unique<mg::Solver>(cfg);
  }
  r.setup_s = seconds_since(t0);
  r.dof = solver->level(0).dof();

  for (int k = 0; k < o.solves; ++k) {
    const Clock::time_point t1 = Clock::now();
    trace::Span span("bench:solve", "bench");
    r.iterations = solver->solve_to_tolerance(kRtol, o.cap);
    r.samples.push_back(seconds_since(t1));
  }

  if (o.corrupt) solver->level(0).grids().at(mg::kX).at(centre(o)) += 1e-3;
  const Clock::time_point t2 = Clock::now();
  {
    trace::Span span("bench:verify", "bench");
    r.error = solver->error_vs_exact();
  }
  r.verify_s = seconds_since(t2);
  r.ok = r.iterations <= o.cap && r.error <= kErrorTol;
  if (!r.ok) r.why = "error vs u* above tolerance or cycle cap hit";
  return r;
}

/// MG-preconditioned CG (one V-cycle per application), openmp.  Every
/// solve restarts from a zero guess.  --corrupt truncates the iteration
/// to two steps: a wrong answer.
Result run_mgcg(const Options& o) {
  Result r;
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<solver::KrylovSolver> krylov;
  {
    trace::Span span("bench:setup", "bench");
    solver::KrylovSolver::Config cfg;
    cfg.problem = spec_of(o);
    cfg.backend = "openmp";
    cfg.rtol = kRtol;
    cfg.max_iters = o.corrupt ? 2 : o.cap;
    cfg.precondition = true;
    krylov = std::make_unique<solver::KrylovSolver>(cfg);
  }
  r.setup_s = seconds_since(t0);
  r.dof = krylov->dof();

  solver::KrylovStats stats;
  for (int k = 0; k < o.solves; ++k) {
    const Clock::time_point t1 = Clock::now();
    trace::Span span("bench:solve", "bench");
    stats = krylov->solve(solver::KrylovSolver::Method::CG);
    r.samples.push_back(seconds_since(t1));
  }
  r.iterations = stats.iterations;

  // The solver computes |x - u*| itself at the end of solve(); the check
  // against the tolerance is the verification.
  const Clock::time_point t2 = Clock::now();
  {
    trace::Span span("bench:verify", "bench");
    r.error = stats.error_max;
    r.ok = stats.converged && r.error <= kErrorTol;
  }
  r.verify_s = seconds_since(t2);
  if (!r.ok) r.why = "not converged or error vs u* above tolerance";
  return r;
}

/// distsim GSRB on a 2x1x1 rank grid (pipelined, overlapped, pruned
/// defaults) for a fixed sweep count, timed sweep by sweep.  Verification, outside the timed
/// solve: two more sweeps from one shared state through distsim and
/// through the sequential `c` backend must agree.
Result run_distsim(const Options& o) {
  Result r;
  const Clock::time_point t0 = Clock::now();
  StencilGroup group;
  std::unique_ptr<mg::Level> level;
  std::unique_ptr<CompiledKernel> kernel;
  ParamMap params;
  {
    trace::Span span("bench:setup", "bench");
    group = mg::gsrb_smooth_group(3);
    level = std::make_unique<mg::Level>(spec_of(o), o.n);
    GridSet& gs = level->grids();
    gs.at(mg::kX).fill_random(o.seed, -1.0, 1.0);
    gs.at(mg::kRhs).fill_random(o.seed ^ 0x9e3779b97f4a7c15ULL, -1.0, 1.0);
    params = {{"h2inv", level->h2inv()}};
    compile(mg::lambda_setup_group(3), gs, "openmp")->run(gs, params);
    CompileOptions opt;
    opt.dist_grid = {2, 1, 1};
    kernel = compile(group, gs, "distsim", opt);
  }
  r.setup_s = seconds_since(t0);
  r.dof = level->dof();
  GridSet& gs = level->grids();
  const auto* info = dynamic_cast<const DistSimKernelInfo*>(kernel.get());
  if (info == nullptr) throw std::runtime_error("distsim kernel lacks DistSimKernelInfo");

  {
    trace::Span span("bench:solve", "bench");
    for (int s = 0; s < o.sweeps; ++s) {
      const Clock::time_point t1 = Clock::now();
      kernel->run(gs, params);
      r.samples.push_back(seconds_since(t1));
      r.halo_bytes += info->last_halo_bytes();
      r.halo_messages += info->last_halo_messages();
      for (const auto& rank : info->last_rank_stats()) r.stall_s += rank.stall_seconds;
    }
  }
  r.units_per_solve = o.sweeps;
  r.iterations = o.sweeps;

  const Clock::time_point t2 = Clock::now();
  {
    trace::Span span("bench:verify", "bench");
    const Grid start = gs.at(mg::kX);
    for (int s = 0; s < 2; ++s) kernel->run(gs, params);
    const Grid dist = gs.at(mg::kX);
    gs.at(mg::kX) = start;
    auto seq = compile(group, gs, "c");
    for (int s = 0; s < 2; ++s) seq->run(gs, params);
    if (o.corrupt) gs.at(mg::kX).at(centre(o)) += 1e-3;
    r.error = Grid::max_abs_diff(dist, gs.at(mg::kX));
  }
  r.verify_s = seconds_since(t2);
  r.ok = std::isfinite(r.error) && r.error <= kAgreeTol;
  if (!r.ok) r.why = "distsim and c backend disagree";
  return r;
}

/// Bring the host compiler into the page cache with one compile nobody
/// times (run with a throwaway SNOWFLAKE_CACHE_DIR).
void warm_compiler() {
  GridSet gs;
  gs.add_zeros("a", {12, 12});
  gs.add_zeros("b", {12, 12});
  compile(StencilGroup(lib::cc_apply(2, "a", "b")), gs, "c");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print(const Result& r) {
  std::string samples;
  for (const double s : r.samples) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.9g", samples.empty() ? "" : ", ", s);
    samples += buf;
  }
  std::printf(
      "{\"ok\": %s, \"why\": \"%s\", \"setup_s\": %.9g, \"samples_s\": [%s], "
      "\"units_per_solve\": %d, \"verify_s\": %.9g, \"iterations\": %d, "
      "\"dof\": %lld, \"error\": %.6g, \"peak_rss_mb\": %.6g, "
      "\"halo_bytes\": %.17g, \"halo_messages\": %lld, \"stall_s\": %.9g}\n",
      r.ok ? "true" : "false", r.why.c_str(), r.setup_s, samples.c_str(), r.units_per_solve,
      r.verify_s, r.iterations, static_cast<long long>(r.dof),
      r.error, peak_rss_mb(), r.halo_bytes, static_cast<long long>(r.halo_messages),
      r.stall_s);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    if (o.workload == "warm-cc") {
      warm_compiler();
      return 0;
    }
    Result r;
    {
      trace::Span span("bench:rep", "bench");
      if (o.workload == "gmg") {
        r = run_gmg(o);
      } else if (o.workload == "mgcg") {
        r = run_mgcg(o);
      } else if (o.workload == "distsim") {
        r = run_distsim(o);
      } else {
        throw std::runtime_error("unknown workload " + o.workload);
      }
    }
    print(r);
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 2;
  }
}
