/// \file quickstart.cpp
/// Minimal end-to-end tour of the public API: build a sparse matrix, square
/// it with AC-SpGEMM, inspect the execution statistics and a stage trace,
/// and round-trip the result through Matrix Market I/O. Exits 1 if a
/// repeat multiply is not bit-identical to the first.
///
/// Run:  ./quickstart [rows] [avg_row_len]

#include <cstdlib>
#include <iostream>

#include "core/acspgemm.hpp"
#include "matrix/generators.hpp"
#include "matrix/mmio.hpp"
#include "matrix/stats.hpp"
#include "suite/bench_runner.hpp"
#include "trace/exporters.hpp"
#include "trace/trace.hpp"

int main(int argc, char** argv) {
  const acs::index_t rows = argc > 1 ? std::atoi(argv[1]) : 10000;
  const double avg = argc > 2 ? std::atof(argv[2]) : 8.0;

  // 1. Build (or load) a CSR matrix. read_matrix_market_file() loads .mtx
  //    files; here we generate a reproducible random matrix instead.
  const auto a = acs::gen_uniform_random<double>(rows, rows, avg, avg / 4, 42);
  std::cout << "A: " << a.rows << " x " << a.cols << ", " << a.nnz()
            << " non-zeros, avg row length "
            << acs::row_stats(a).avg_len << "\n";

  // 2. Multiply. The default Config reproduces the paper's setup (256
  //    threads, 256 nnz/block, 8 elements/thread, 4 retained). Attaching a
  //    TraceSession records a span per pipeline stage; results and stats
  //    are unaffected.
  acs::trace::TraceSession session;
  acs::Config cfg;
  cfg.trace = &session;
  acs::SpgemmStats stats;
  const auto c = acs::multiply(a, a, cfg, &stats);

  std::cout << "C = A*A: " << c.nnz() << " non-zeros\n";
  std::cout << "intermediate products: " << stats.intermediate_products
            << " (compaction factor "
            << static_cast<double>(stats.intermediate_products) /
                   static_cast<double>(c.nnz())
            << ")\n";
  std::cout << "simulated GPU time: " << stats.sim_time_s * 1e3 << " ms  ("
            << stats.gflops() << " GFLOPS)\n";
  std::cout << "restarts: " << stats.restarts
            << ", chunk pool used: "
            << static_cast<double>(stats.pool_used_bytes) / 1024.0 / 1024.0
            << " MB of "
            << static_cast<double>(stats.pool_bytes) / 1024.0 / 1024.0
            << " MB allocated\n";
  std::cout << "stage trace (src/trace observability layer):\n"
            << acs::trace::to_table(session);

  // 3. Results are bit-stable: a second run gives bit-identical values.
  const bool stable = c.equals_exact(acs::multiply(a, a));
  std::cout << "bit-stable across runs: " << (stable ? "yes" : "NO (bug!)")
            << "\n";

  // 4. Save the product for external tools.
  const std::string out = acs::bench_out_path("quickstart_product.mtx");
  acs::write_matrix_market_file(out, c);
  std::cout << "wrote " << out << "\n";
  return stable ? 0 : 1;
}
