/// \file test_arch.cpp
/// The arch layer's contracts (docs/BACKENDS.md):
///  * the backend table — row i describes ArchId i under a unique name,
///    SimTitanXp's device equals the pre-arch simulator defaults exactly,
///    NativeCpu runs under it too, and unknown ids fold to the default row;
///  * the kernels both backends run (sim::radix_sort, compact_sorted_into)
///    are drop-in equivalents of the emulated GPU primitives they replace:
///    same sort permutation, same compaction layout, same left-to-right
///    value association;
///  * the NativeCpu backend is bit-identical to the simulated pipeline on
///    a full differential generator sweep — float and double, one and many
///    scheduler threads, long rows, shrunken block shapes — and at one
///    scheduler thread it charges the same metrics;
///  * `apply_arch` resolves EngineConfig backends into runnable Configs,
///    an Engine on NativeCpu produces bit-identical results with zero
///    simulated time, and a job's own `Config::arch` selects its backend
///    and plan key on a default engine;
///  * SimBigDevice's widened tuner grid selects block shapes SimTitanXp's
///    feasibility check must reject (the point of the per-arch grids).

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/arch.hpp"
#include "core/acspgemm.hpp"
#include "core/compaction.hpp"
#include "core/sort_key.hpp"
#include "matrix/generators.hpp"
#include "runtime/engine.hpp"
#include "sim/block_primitives.hpp"
#include "tune/features.hpp"
#include "tune/tuner.hpp"

namespace acs {
namespace {

// --- The backend table -----------------------------------------------------

TEST(ArchTable, RowIHasIdIAndAUniqueName) {
  const auto& rows = arch::kArchTable;
  ASSERT_EQ(rows.size(), 3u);
  std::set<std::string> names;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(rows[i].id), i);
    EXPECT_EQ(&arch::arch_info(rows[i].id), &rows[i]);
    ASSERT_NE(rows[i].name, nullptr);
    EXPECT_FALSE(std::string(rows[i].name).empty()) << "row " << i;
    EXPECT_TRUE(names.insert(rows[i].name).second) << rows[i].name;
  }
}

TEST(ArchTable, SimTitanXpIsBitCompatibleWithPreArchDefaults) {
  // The default row must hold exactly the simulator's default device —
  // this is what keeps pre-arch fingerprints, plans and cost predictions
  // stable.
  const arch::ArchInfo& titan = arch::arch_info(arch::ArchId::kSimTitanXp);
  EXPECT_EQ(titan.device, sim::DeviceConfig{});
  EXPECT_EQ(titan.exec, arch::ExecKind::kSimulated);
  EXPECT_EQ(Config{}.arch, arch::ArchId::kSimTitanXp);
}

TEST(ArchTable, NativeCpuMirrorsTitanGeometryAndBigDeviceWidens) {
  const arch::ArchInfo& titan = arch::arch_info(arch::ArchId::kSimTitanXp);
  const arch::ArchInfo& native = arch::arch_info(arch::ArchId::kNativeCpu);
  const arch::ArchInfo& big = arch::arch_info(arch::ArchId::kSimBigDevice);
  // NativeCpu: the titan's device (bit-identity depends on it), a
  // different execution kind.
  EXPECT_EQ(native.device, titan.device);
  EXPECT_EQ(native.exec, arch::ExecKind::kNative);
  // SimBigDevice: 96 KiB of scratchpad and more SMs — the widened feasible
  // region the per-arch tuner grid exploits.
  EXPECT_EQ(big.device.scratchpad_bytes, 96 * 1024);
  EXPECT_GT(big.device.num_sms, titan.device.num_sms);
  EXPECT_EQ(big.exec, arch::ExecKind::kSimulated);
}

TEST(ArchTable, UnknownIdsFoldToTheDefaultRow) {
  const auto unknown = static_cast<arch::ArchId>(0xdeadu);
  EXPECT_EQ(&arch::arch_info(unknown),
            &arch::arch_info(arch::ArchId::kSimTitanXp));
  EXPECT_EQ(arch::arch_info(static_cast<arch::ArchId>(3)).id,
            arch::ArchId::kSimTitanXp);
}

// --- Native primitive equivalence -----------------------------------------

TEST(NativePrimitives, RadixSortMatchesSimPermutationIncludingStability) {
  std::mt19937_64 rng(42);
  for (const int bits : {1, 4, 11, 13, 22, 31}) {
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    std::vector<std::uint64_t> keys(777);
    // Payloads are unique, so stable sorts of duplicate-heavy keys must
    // agree element-for-element, not just key-for-key.
    std::vector<double> vals(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = rng() & mask & 0xff;  // few distinct keys -> many duplicates
      vals[i] = static_cast<double>(i);
    }
    auto sim_keys = keys;
    auto sim_vals = vals;
    sim::MetricCounters m;
    sim::block_radix_sort(std::span(sim_keys), std::span(sim_vals), bits, m);

    auto nat_keys = keys;
    auto nat_vals = vals;
    sim::RadixSortScratch<std::uint64_t, double> scratch;
    sim::radix_sort(std::span(nat_keys), std::span(nat_vals), bits, scratch);
    EXPECT_EQ(nat_keys, sim_keys) << "bits=" << bits;
    EXPECT_EQ(nat_vals, sim_vals) << "bits=" << bits;
  }
}

TEST(NativePrimitives, CompactionMatchesSimLayoutAndAssociation) {
  // Rows of varying duplication, sorted, compacted by both paths.
  const KeyCodec codec = KeyCodec::make(0, 30, 0, 1000, true, 255, 1023);
  std::vector<std::uint64_t> keys;
  std::vector<double> vals;
  std::mt19937_64 rng(7);
  for (index_t row = 0; row <= 30; ++row) {
    index_t col = 0;
    while (col < 900) {
      const int dups = 1 + static_cast<int>(rng() % 5);
      for (int d = 0; d < dups; ++d) {
        keys.push_back(codec.encode(row, col));
        // 0.1 is not exactly representable: any change in association or
        // combine order shows up in the low mantissa bits.
        vals.push_back(0.1 * static_cast<double>(rng() % 97) + 0.1);
      }
      col += 1 + static_cast<index_t>(rng() % 200);
    }
  }

  sim::MetricCounters m;
  const CompactionOutput<double> simc = compact_sorted<double>(
      std::span<const std::uint64_t>(keys), std::span<const double>(vals),
      codec, m);
  CompactionOutput<double> natc;
  compact_sorted_into(std::span<const std::uint64_t>(keys),
                      std::span<const double>(vals), codec, natc);
  EXPECT_EQ(natc.keys, simc.keys);
  EXPECT_EQ(natc.vals, simc.vals);  // element-exact: same association
  EXPECT_EQ(natc.rows, simc.rows);
}

TEST(NativePrimitives, CompactionEnforcesTheSameCounterBound) {
  const KeyCodec codec = KeyCodec::make(0, 0, 0, 0, false, 255, 1 << 20);
  std::vector<std::uint64_t> keys(compaction_detail::kCounterMask + 1);
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = codec.encode(0, static_cast<index_t>(i));
  const std::vector<double> vals(keys.size(), 1.0);
  CompactionOutput<double> out;
  EXPECT_THROW(compact_sorted_into(std::span<const std::uint64_t>(keys),
                                   std::span<const double>(vals), codec, out),
               std::length_error);
}

// --- NativeCpu differential sweep -----------------------------------------

/// Multiply under the simulated default and under NativeCpu (one and four
/// scheduler threads); all three results must be bit-identical. No
/// quantization: the native backend promises the exact same floating-point
/// program, so even untamed values must match to the last bit. Both
/// backends run the same kernels, so at one scheduler thread (where the
/// restart count is deterministic) they also charge the same metrics.
template <class T>
void expect_native_matches_sim(const Csr<T>& a, const Csr<T>& b, Config cfg,
                               const std::string& label) {
  SpgemmStats sim_stats;
  const Csr<T> sim_out = multiply(a, b, cfg, &sim_stats);

  Config nat = cfg;
  nat.arch = arch::ArchId::kNativeCpu;
  SpgemmStats nat_stats;
  const Csr<T> nat1 = multiply(a, b, nat, &nat_stats);
  EXPECT_TRUE(nat1.equals_exact(sim_out)) << label << ": native-1 vs sim";
  EXPECT_EQ(nat_stats.metrics, sim_stats.metrics)
      << label << ": native-1 vs sim metrics";

  nat.scheduler_threads = 4;
  const Csr<T> nat4 = multiply(a, b, nat);
  EXPECT_TRUE(nat4.equals_exact(sim_out)) << label << ": native-4 vs sim";
}

TEST(NativeBackend, GeneratorSweepDoubleIsBitIdentical) {
  struct Case {
    std::string name;
    Csr<double> a;
  };
  std::vector<Case> cases;
  cases.push_back({"uniform", gen_uniform_random<double>(300, 300, 6.0, 2.0, 201)});
  cases.push_back({"local", gen_uniform_local<double>(300, 300, 8.0, 2.0, 40, 202)});
  cases.push_back({"powerlaw", gen_powerlaw<double>(300, 300, 5.0, 1.6, 120, 203)});
  cases.push_back({"banded", gen_banded<double>(256, 4, 204)});
  cases.push_back({"stencil2d", gen_stencil_2d<double>(20, 20, 205)});
  cases.push_back({"stencil3d", gen_stencil_3d<double>(8, 8, 8, 206)});
  cases.push_back({"blockdense", gen_block_dense<double>(200, 200, 12, 2, 207)});
  for (const auto& c : cases)
    expect_native_matches_sim(c.a, c.a, Config{}, c.name + " A*A");
}

TEST(NativeBackend, GeneratorSweepFloatIsBitIdentical) {
  const auto u = gen_uniform_random<float>(250, 250, 5.0, 1.0, 211);
  const auto p = gen_powerlaw<float>(250, 250, 4.0, 1.5, 80, 212);
  expect_native_matches_sim(u, u, Config{}, "uniform float A*A");
  expect_native_matches_sim(p, p, Config{}, "powerlaw float A*A");
}

TEST(NativeBackend, SmallBlocksAndLongRowsStayBitIdentical) {
  // Shrunken block resources force multi-chunk rows, carries and restarts
  // through the Path/Search merge paths; long rows of B exercise the
  // pointer-chunk special case. The native pipeline must track every one.
  const auto a = gen_powerlaw<double>(300, 300, 6.0, 1.5, 120, 221);
  for (int nnz_per_block : {32, 64}) {
    Config cfg;
    cfg.nnz_per_block = nnz_per_block;
    expect_native_matches_sim(a, a, cfg,
                              "nnz_per_block=" + std::to_string(nnz_per_block));
  }
  const auto base = gen_uniform_random<double>(200, 200, 4.0, 1.0, 222);
  const auto lr = inject_long_rows(base, 3, 1200, 223);
  expect_native_matches_sim(lr, lr, Config{}, "long rows");
}

// --- apply_arch and the engine --------------------------------------------

TEST(ApplyArch, DefaultArchLeavesTheConfigUntouched) {
  runtime::EngineConfig ec;  // arch = kSimTitanXp
  for (const auto job_arch :
       {arch::ArchId::kSimTitanXp, arch::ArchId::kNativeCpu}) {
    Config cfg;
    cfg.nnz_per_block = 512;
    cfg.arch = job_arch;
    runtime::apply_arch(cfg, ec);
    EXPECT_EQ(cfg.arch, job_arch);  // the job's own choice stands
    EXPECT_EQ(cfg.nnz_per_block, 512);
    EXPECT_EQ(cfg.scheduler_threads, 1u);
  }
}

TEST(ApplyArch, NativeCpuResolvesExecAndThreads) {
  runtime::EngineConfig ec;
  ec.arch = arch::ArchId::kNativeCpu;
  ec.native_threads = 3;
  Config cfg;
  runtime::apply_arch(cfg, ec);
  EXPECT_EQ(cfg.arch, arch::ArchId::kNativeCpu);
  EXPECT_EQ(cfg.scheduler_threads, 3u);

  // native_threads = 0: resolved from the host (never left at zero).
  ec.native_threads = 0;
  Config auto_cfg;
  runtime::apply_arch(auto_cfg, ec);
  EXPECT_GE(auto_cfg.scheduler_threads, 1u);
}

TEST(ApplyArch, SimBigDeviceSwapsTheSimulatedDevice) {
  runtime::EngineConfig ec;
  ec.arch = arch::ArchId::kSimBigDevice;
  Config cfg;
  cfg.arch = arch::ArchId::kNativeCpu;  // an engine's arch overrides a job's
  runtime::apply_arch(cfg, ec);
  EXPECT_EQ(cfg.arch, arch::ArchId::kSimBigDevice);
  EXPECT_EQ(cfg.scheduler_threads, 1u);  // simulated default untouched
}

TEST(Engine, NativeCpuEngineIsBitIdenticalWithZeroSimulatedTime) {
  const auto a = gen_powerlaw<double>(300, 300, 5.0, 1.5, 120, 231);
  const auto b = gen_uniform_random<double>(300, 300, 4.0, 1.0, 232);
  std::vector<std::pair<Csr<double>, Csr<double>>> pairs;
  pairs.emplace_back(a, a);
  pairs.emplace_back(a, b);
  pairs.emplace_back(a, a);  // repeat fingerprint: warm plan on the native side too

  runtime::Engine<double> sim_engine;
  const auto sim_res = sim_engine.multiply_batch(pairs);

  runtime::EngineConfig nat_ec;
  nat_ec.arch = arch::ArchId::kNativeCpu;
  nat_ec.native_threads = 2;
  runtime::Engine<double> nat_engine(nat_ec);
  const auto nat_res = nat_engine.multiply_batch(pairs);

  ASSERT_EQ(nat_res.size(), sim_res.size());
  for (std::size_t i = 0; i < nat_res.size(); ++i) {
    ASSERT_FALSE(nat_res[i].failed()) << "job " << i;
    EXPECT_TRUE(nat_res[i].c.equals_exact(sim_res[i].c)) << "job " << i;
    EXPECT_EQ(nat_res[i].stats.sim_time_s, 0.0) << "job " << i;
    EXPECT_GT(sim_res[i].stats.sim_time_s, 0.0) << "job " << i;
  }
  EXPECT_TRUE(nat_res[2].plan_hit);  // repeat hit the native arch's entry
}

TEST(Engine, JobArchSelectsBackendAndPlanKey) {
  // On a default engine each job runs on the backend its own Config names,
  // and its plan is keyed by that backend: a simulated job after a native
  // one on the same operands misses, a second native job hits.
  const auto a = gen_powerlaw<double>(300, 300, 5.0, 1.5, 120, 233);
  const Csr<double> sim_c = multiply(a, a);
  Config native;
  native.arch = arch::ArchId::kNativeCpu;

  runtime::Engine<double> engine;
  const auto first = engine.submit(a, a, native).result();
  EXPECT_EQ(first.stats.sim_time_s, 0.0);
  EXPECT_TRUE(first.c.equals_exact(sim_c));
  EXPECT_FALSE(first.plan_hit);

  const auto second = engine.submit(a, a, Config{}).result();
  EXPECT_GT(second.stats.sim_time_s, 0.0);
  EXPECT_FALSE(second.plan_hit);

  const auto third = engine.submit(a, a, native).result();
  EXPECT_EQ(third.stats.sim_time_s, 0.0);
  EXPECT_TRUE(third.plan_hit);
}

// --- SimBigDevice tuner ----------------------------------------------------

TEST(BigDeviceTuner, SelectsBlockShapesTitanMustReject) {
  // On an input that fills the big device (~640k nnz: even 2048-entry
  // blocks fill its 160 slots twice over) the widened grid wins with
  // nnz_per_block >= 1024 — a shape whose double-width ESC working set
  // exceeds the Titan Xp's 48 KiB scratchpad, so its feasibility check
  // must prune it. A small input, a few blocks at 2048, rightly prefers
  // narrow blocks on the modeled clock.
  const auto a = gen_uniform_random<double>(20000, 20000, 32.0, 4.0, 241);
  const auto f = tune::extract_features(a, a);

  Config big_base;
  big_base.arch = arch::ArchId::kSimBigDevice;
  const tune::AutoTuner big_tuner(
      tune::default_tuner_options(arch::ArchId::kSimBigDevice));
  const TunedParams winner = big_tuner.choose(f, big_base, sizeof(double));
  ASSERT_TRUE(winner.valid);
  EXPECT_GE(winner.nnz_per_block, 1024);

  // The winning overlay fits the big device but not the titan.
  Config on_big = big_base;
  winner.apply(on_big);
  EXPECT_TRUE(fits_device(on_big, sizeof(double)));
  Config on_titan;
  on_titan.arch = arch::ArchId::kSimTitanXp;
  winner.apply(on_titan);
  EXPECT_FALSE(fits_device(on_titan, sizeof(double)));

  // And the titan's own default grid never offers that shape: its best
  // candidate under the same features stays feasible on the titan.
  const tune::AutoTuner titan_tuner(
      tune::default_tuner_options(arch::ArchId::kSimTitanXp));
  const TunedParams titan_winner = titan_tuner.choose(f, Config{}, sizeof(double));
  ASSERT_TRUE(titan_winner.valid);
  Config titan_cfg;
  titan_winner.apply(titan_cfg);
  EXPECT_TRUE(fits_device(titan_cfg, sizeof(double)));
}

}  // namespace
}  // namespace acs
