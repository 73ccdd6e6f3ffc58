/// \file bitstable_demo.cpp
/// Demonstrates the paper's bit-stability claim (Table 1's daggers): under
/// changing hardware schedules, hash-based SpGEMM produces different
/// floating-point results on every run, while AC-SpGEMM (and the other
/// merge-based methods) are bit-identical. Schedules are emulated with
/// seeds; on real hardware the variation comes from the block scheduler.
/// Exits 1 if a repeat run of a bit-stable method differs from its first;
/// the hash method is expected to drift.
///
/// Run:  ./bitstable_demo [runs]

#include <cmath>
#include <cstdlib>
#include <iostream>

#include "baselines/nsparse_like.hpp"
#include "baselines/rmerge.hpp"
#include "core/acspgemm.hpp"
#include "matrix/generators.hpp"

int main(int argc, char** argv) {
  const int runs = argc > 1 ? std::atoi(argv[1]) : 5;

  // Wide dynamic range makes accumulation-order differences visible.
  auto m = acs::gen_powerlaw<float>(3000, 3000, 8.0, 1.7, 500, 3);
  for (std::size_t i = 0; i < m.values.size(); ++i)
    m.values[i] *= ((i % 6 == 0) ? 1e7f : 1e-7f);

  std::cout << "matrix: " << m.rows << "^2, " << m.nnz() << " nnz\n\n";

  const auto report = [&](const char* name, auto&& run) {
    const auto ref = run(1);
    int identical = 0;
    double worst_ulp_drift = 0.0;
    for (int i = 2; i <= runs; ++i) {
      const auto c = run(i);
      if (c.equals_exact(ref)) {
        ++identical;
      } else {
        for (std::size_t k = 0; k < c.values.size(); ++k) {
          const double d = std::abs(static_cast<double>(c.values[k]) -
                                    static_cast<double>(ref.values[k]));
          const double scale = std::abs(static_cast<double>(ref.values[k]));
          if (scale > 0) worst_ulp_drift = std::max(worst_ulp_drift, d / scale);
        }
      }
    }
    std::cout << name << ": " << identical << "/" << runs - 1
              << " repeat runs bit-identical";
    if (identical < runs - 1)
      std::cout << " (worst relative drift " << worst_ulp_drift << ")";
    std::cout << "\n";
    return identical == runs - 1;
  };

  const bool ac_stable = report("AC-SpGEMM (bit-stable)  ",
                                [&](int) { return acs::multiply(m, m); });
  const bool rmerge_stable =
      report("RMerge    (bit-stable)  ",
             [&](int) { return acs::rmerge_multiply(m, m); });
  report("nsparse   (hash, dagger)", [&](int seed) {
    return acs::nsparse_multiply(m, m, nullptr,
                                 static_cast<std::uint64_t>(seed));
  });

  std::cout << "\nHash-based methods accumulate in scheduler order: every\n"
               "run returns a slightly different matrix. Pipelines that\n"
               "diff checkpoints, verify results across machines, or need\n"
               "reproducible debugging require the bit-stable methods.\n";
  return ac_stable && rmerge_stable ? 0 : 1;
}
