/// \file bench_micro_primitives.cpp
/// google-benchmark microbenchmarks of the emulated GPU block primitives
/// (the block radix sort, the Algorithm 3 compaction scan and the work
/// distribution's `receive`), supporting the Section 3.2.3 argument that
/// radix-sort work scales with the sorted bit width (the basis of the
/// dynamic bit-reduction optimization). The pipeline charges this work in
/// closed form and runs host kernels instead; these primitives are the
/// test oracles for both.

#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "core/compaction.hpp"
#include "core/sort_key.hpp"
#include "core/work_distribution.hpp"
#include "sim/block_primitives.hpp"

namespace {

using namespace acs;

void BM_BlockRadixSortBits(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> keys(2048);
  std::vector<double> vals(2048);
  const std::uint64_t mask = bits >= 64 ? ~0ull : ((1ull << bits) - 1);
  for (auto& k : keys) k = rng() & mask;
  sim::MetricCounters m;
  for (auto _ : state) {
    auto kcopy = keys;
    auto vcopy = vals;
    sim::block_radix_sort(std::span(kcopy), std::span(vcopy), bits, m);
    benchmark::DoNotOptimize(kcopy.data());
  }
  state.counters["sim_sort_work_per_iter"] =
      static_cast<double>(2048 * sim::radix_passes(bits));
}
BENCHMARK(BM_BlockRadixSortBits)->Arg(9)->Arg(16)->Arg(23)->Arg(32)->Arg(48);

void BM_CompactionScan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto codec = KeyCodec::make(0, 255, 0, 4095, true, 255, 1 << 20);
  std::mt19937_64 rng(11);
  std::vector<std::uint64_t> keys(n);
  std::vector<double> vals(n, 1.0);
  for (auto& k : keys)
    k = codec.encode(static_cast<index_t>(rng() % 64),
                     static_cast<index_t>(rng() % 512));
  std::sort(keys.begin(), keys.end());
  sim::MetricCounters m;
  for (auto _ : state) {
    auto out = compact_sorted<double>(std::span(keys), std::span(vals), codec, m);
    benchmark::DoNotOptimize(out.keys.data());
  }
}
BENCHMARK(BM_CompactionScan)->Arg(256)->Arg(1024)->Arg(2048);

void BM_WorkDistributionReceive(benchmark::State& state) {
  std::mt19937_64 rng(13);
  std::vector<offset_t> counts(256);
  for (auto& c : counts) c = static_cast<offset_t>(rng() % 40);
  sim::MetricCounters m;
  for (auto _ : state) {
    WorkDistribution wd(counts, m);
    std::vector<WorkDistribution::Item> items;
    while (wd.size() > 0) {
      items.clear();
      wd.receive(std::min<offset_t>(2048, wd.size()), items, m);
      benchmark::DoNotOptimize(items.data());
    }
  }
}
BENCHMARK(BM_WorkDistributionReceive);

}  // namespace
