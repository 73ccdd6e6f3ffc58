#pragma once
/// \file acspgemm.hpp
/// Public API of AC-SpGEMM, the adaptive chunk-based sparse matrix-matrix
/// multiplication of Winter et al. (PPoPP'19), executed on the repository's
/// deterministic GPU simulator.
///
/// The multiplication C = A·B runs the paper's four-stage pipeline:
/// global load balancing over A's non-zeros, adaptive chunk-based ESC with
/// a local work distribution, chunk merging (Multi/Path/Search merge), and
/// chunk copy into the CSR output. Results are bit-stable: the same inputs
/// produce bit-identical outputs on every run and for every scheduler
/// thread count.
///
/// Example:
/// \code
///   acs::Csr<double> a = acs::gen_uniform_random<double>(1000, 1000, 8, 2, 1);
///   acs::SpgemmStats stats;
///   acs::Csr<double> c = acs::multiply(a, a, acs::Config{}, &stats);
///   std::cout << stats.gflops() << " simulated GFLOPS\n";
/// \endcode

#include "core/chunk.hpp"
#include "core/config.hpp"
#include "core/plan.hpp"
#include "matrix/csr.hpp"
#include "sim/scheduler.hpp"
#include "sim/spgemm_stats.hpp"

namespace acs {

/// Multiply two CSR matrices with AC-SpGEMM. `a.cols` must equal `b.rows`.
/// Throws std::invalid_argument on dimension mismatch or an inconsistent
/// configuration (e.g. retained elements not smaller than the sort
/// capacity). `stats`, when non-null, receives timing, memory and restart
/// statistics of the run.
template <class T>
Csr<T> multiply(const Csr<T>& a, const Csr<T>& b, const Config& cfg = {},
                SpgemmStats* stats = nullptr);

/// Plan-in/plan-out variant of `multiply`: structure-dependent setup work is
/// read from and written back to `plan`. A plan whose load-balancing table
/// matches (same nnz(A), same nnz_per_block) skips the GLB pass; a non-zero
/// `plan.pool_bytes` replaces the paper's memory estimate with the learned
/// capacity, so a plan replayed on the same sparsity pattern runs without
/// restarts. The output is bit-identical to the plain `multiply` — plans
/// only shortcut work, they never change results (determinism contract,
/// DESIGN.md §6). `scheduler`, when non-null, executes the simulated blocks
/// instead of a per-call scheduler, letting callers (the runtime Engine)
/// keep one warm thread pool across many multiplications, concurrent ones
/// included; it must outlive the call. Either way the blocks run on
/// `cfg.scheduler_threads` threads.
/// `regions`, when non-null, supplies the chunk pool's storage regions and
/// gets every one back before the call returns (the Engine's arena
/// recycles them across jobs); without it the call maps its own and
/// unmaps them before returning.
template <class T>
Csr<T> multiply_planned(const Csr<T>& a, const Csr<T>& b, const Config& cfg,
                        SpgemmPlan& plan, SpgemmStats* stats = nullptr,
                        sim::BlockScheduler* scheduler = nullptr,
                        RegionSource* regions = nullptr);

/// The paper's simplistic chunk-pool estimate (Section 4): expected nnz of
/// C under a uniform-row model, times (4 + sizeof(T)) bytes per element,
/// times `cfg.pool_estimate_factor`, clamped to `cfg.pool_lower_bound_bytes`.
template <class T>
std::size_t estimate_chunk_pool_bytes(const Csr<T>& a, const Csr<T>& b,
                                      const Config& cfg);

extern template Csr<float> multiply(const Csr<float>&, const Csr<float>&,
                                    const Config&, SpgemmStats*);
extern template Csr<double> multiply(const Csr<double>&, const Csr<double>&,
                                     const Config&, SpgemmStats*);
extern template Csr<float> multiply_planned(const Csr<float>&,
                                            const Csr<float>&, const Config&,
                                            SpgemmPlan&, SpgemmStats*,
                                            sim::BlockScheduler*,
                                            RegionSource*);
extern template Csr<double> multiply_planned(const Csr<double>&,
                                             const Csr<double>&, const Config&,
                                             SpgemmPlan&, SpgemmStats*,
                                             sim::BlockScheduler*,
                                             RegionSource*);
extern template std::size_t estimate_chunk_pool_bytes(const Csr<float>&,
                                                      const Csr<float>&,
                                                      const Config&);
extern template std::size_t estimate_chunk_pool_bytes(const Csr<double>&,
                                                      const Csr<double>&,
                                                      const Config&);

}  // namespace acs
