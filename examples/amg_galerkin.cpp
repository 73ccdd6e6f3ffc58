/// \file amg_galerkin.cpp
/// Algebraic-multigrid coarsening — the paper's first motivating SpGEMM
/// application ("algebraic multigrid solvers [5]") — run through the
/// batched execution engine (src/runtime). Builds a 2D Poisson problem,
/// constructs an aggregation-based prolongation P per level, and forms the
/// Galerkin coarse operator A_c = Pᵀ (A P) with two engine-submitted
/// SpGEMMs per level. The setup is repeated `passes` times, the way a
/// time-dependent or parameter-sweep solver rebuilds its hierarchy: every
/// pass after the first multiplies matrices with identical sparsity
/// structure, so the engine's plan cache serves every product from a warm
/// plan — the example prints the hit rate alongside the hierarchy and the
/// operator complexity AMG practitioners watch.
///
/// Run:  ./amg_galerkin [grid_n] [levels] [setup_passes]

#include <cstdlib>
#include <iostream>
#include <utility>
#include <vector>

#include "matrix/coo.hpp"
#include "matrix/generators.hpp"
#include "matrix/transpose.hpp"
#include "runtime/engine.hpp"

namespace {

/// Unsmoothed aggregation prolongation: group every `aggregate` consecutive
/// unknowns into one coarse unknown (pairwise aggregation along the grid
/// ordering — simple but exactly the SpGEMM workload AMG setup produces).
acs::Csr<double> aggregation_prolongation(acs::index_t fine, acs::index_t aggregate) {
  const acs::index_t coarse = acs::divup(fine, aggregate);
  acs::Coo<double> p;
  p.rows = fine;
  p.cols = coarse;
  for (acs::index_t i = 0; i < fine; ++i) p.push(i, i / aggregate, 1.0);
  return p.to_csr();
}

}  // namespace

int main(int argc, char** argv) {
  const acs::index_t n = argc > 1 ? std::atoi(argv[1]) : 128;
  const int levels = argc > 2 ? std::atoi(argv[2]) : 4;
  const int passes = argc > 3 ? std::atoi(argv[3]) : 2;

  acs::runtime::EngineConfig ecfg;
  ecfg.workers = 2;
  acs::runtime::Engine<double> engine(ecfg);

  std::cout << "AMG hierarchy for " << n << "x" << n << " Poisson problem ("
            << passes << " setup passes through the engine)\n";

  double fine_nnz = 1.0;
  double total_nnz = 0.0;
  double spgemm_time = 0.0;
  acs::Csr<double> coarsest;

  for (int pass = 0; pass < passes; ++pass) {
    auto a = acs::gen_stencil_2d<double>(n, n, 7);
    if (pass == 0) {
      fine_nnz = static_cast<double>(a.nnz());
      total_nnz = fine_nnz;
      std::cout << "level 0: " << a.rows << " unknowns, " << a.nnz()
                << " non-zeros\n";
    }

    for (int level = 1; level <= levels && a.rows > 16; ++level) {
      const auto p = aggregation_prolongation(a.rows, 4);
      const auto r = acs::transpose(p);

      // Galerkin triple product via two SpGEMMs: A_c = R * (A * P).
      auto h_ap = engine.submit(a, p);
      auto& ap = h_ap.result();
      spgemm_time += ap.stats.sim_time_s;
      auto h_c = engine.submit(r, ap.c);
      a = h_c.result().c;
      spgemm_time += h_c.result().stats.sim_time_s;

      if (pass == 0) {
        total_nnz += static_cast<double>(a.nnz());
        std::cout << "level " << level << ": " << a.rows << " unknowns, "
                  << a.nnz() << " non-zeros (galerkin product via SpGEMM)\n";
      }
    }
    coarsest = std::move(a);
  }

  std::cout << "operator complexity: " << total_nnz / fine_nnz
            << " (sum of all levels' nnz / fine nnz)\n";
  std::cout << "simulated SpGEMM time over all passes: " << spgemm_time * 1e3
            << " ms\n";

  const auto plans = engine.plan_counters();
  const auto arena = engine.arena_counters();
  std::cout << "plan-cache hit rate: " << 100.0 * plans.hit_rate() << "% ("
            << plans.hits << " hits / " << plans.hits + plans.misses
            << " products; passes after the first reuse every plan)\n";
  std::cout << "pool regions recycled across jobs: " << arena.reused_bytes
            << " bytes (" << arena.fresh_bytes << " freshly allocated)\n";

  // Sanity: the coarsest operator must still be a valid CSR matrix.
  if (const auto err = coarsest.validate(); !err.empty()) {
    std::cerr << "invalid coarse operator: " << err << "\n";
    return 1;
  }
  std::cout << "hierarchy valid.\n";
  return 0;
}
