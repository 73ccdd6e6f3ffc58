#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <thread>
#include <string>
#include <utility>
#include <vector>

#include "core/acspgemm.hpp"
#include "matrix/generators.hpp"
#include "serve/server.hpp"
#include "test_util.hpp"
#include "tune/features.hpp"
#include "tune/predictor.hpp"

namespace acs::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The serving layer's price for C = A·B under `cfg` — same features, same
/// predictor, same defaults as Server::submit (safety factor 1 assumed).
double probe_cost(const Csr<double>& a, const Csr<double>& b,
                  const Config& cfg = {}) {
  const tune::TunerOptions opts;
  const auto f =
      tune::extract_features(a, b, opts.sample_stride, opts.min_samples);
  return tune::predict_makespan_s(f, cfg, sizeof(double));
}

// --- ServeQuota (token bucket) --------------------------------------------

TEST(ServeQuota, UnmeteredBucketAlwaysAdmits) {
  TokenBucket b;  // default: rate 0 = unmetered
  EXPECT_TRUE(b.unmetered());
  EXPECT_TRUE(b.try_consume(0.0, 1e9));
  EXPECT_TRUE(b.try_consume(0.0, 1e9));
  TokenBucket zero_rate(0.0, 5.0);
  EXPECT_TRUE(zero_rate.unmetered());
  EXPECT_TRUE(zero_rate.try_consume(0.0, 123.0));
}

TEST(ServeQuota, BurstBoundsUpfrontSpending) {
  TokenBucket b(1.0, 2.0);  // 1 cost-s/s refill, 2 cost-s capacity
  EXPECT_FALSE(b.unmetered());
  EXPECT_TRUE(b.try_consume(0.0, 1.5));   // initial fill = burst
  EXPECT_FALSE(b.try_consume(0.0, 1.0));  // only 0.5 left
  EXPECT_TRUE(b.try_consume(0.0, 0.5));
  EXPECT_FALSE(b.try_consume(0.0, 0.1));
}

TEST(ServeQuota, RefillsOverVirtualTimeAndCapsAtBurst) {
  TokenBucket b(1.0, 2.0);
  ASSERT_TRUE(b.try_consume(0.0, 2.0));  // empty the bucket
  EXPECT_FALSE(b.try_consume(0.5, 1.0));  // only 0.5 refilled
  EXPECT_TRUE(b.try_consume(1.5, 1.0));   // 1.5 virtual seconds elapsed
  // Idle for ages: capped at burst, not rate * elapsed.
  EXPECT_NEAR(b.available(100.0), 2.0, 1e-12);
  EXPECT_FALSE(b.try_consume(100.0, 2.5));
}

TEST(ServeQuota, ClockNeverRunsBackwards) {
  TokenBucket b(1.0, 4.0);
  ASSERT_TRUE(b.try_consume(10.0, 4.0));
  // An earlier timestamp neither refills nor rewinds.
  EXPECT_NEAR(b.available(3.0), 0.0, 1e-12);
  EXPECT_NEAR(b.available(11.0), 1.0, 1e-12);
}

TEST(ServeQuota, SlackAdmitsExactlySizedBurst) {
  // burst sized for exactly ten jobs: accumulated subtraction error must
  // not starve the tenth.
  TokenBucket b(1e-9, 10 * 0.1);
  for (int i = 0; i < 10; ++i)
    EXPECT_TRUE(b.try_consume(0.0, 0.1)) << "job " << i;
  EXPECT_FALSE(b.try_consume(0.0, 0.1));
}

// --- ServeDrr (deficit round robin) ---------------------------------------

std::vector<std::size_t> pop_order(DrrScheduler& drr, std::size_t n) {
  std::vector<std::size_t> order;
  QueuedJob j;
  std::size_t t = 0;
  while (order.size() < n && drr.pop_next(j, &t)) order.push_back(t);
  return order;
}

TEST(ServeDrr, EqualWeightsShareServiceEvenly) {
  DrrScheduler drr(0.25);
  const std::size_t a = drr.add_tenant(1.0);
  const std::size_t b = drr.add_tenant(1.0);
  for (std::uint64_t i = 0; i < 8; ++i) {
    drr.enqueue(a, QueuedJob{i, 1.0, 0, 0.0});
    drr.enqueue(b, QueuedJob{100 + i, 1.0, 0, 0.0});
  }
  EXPECT_EQ(drr.queued_jobs(), 16u);
  EXPECT_NEAR(drr.queued_cost_s(), 16.0, 1e-12);

  const auto order = pop_order(drr, 16);
  ASSERT_EQ(order.size(), 16u);
  // Any 8-dispatch prefix splits close to evenly between equal weights
  // (DRR's service lag is bounded by one job plus one quantum).
  const auto head_a = static_cast<std::size_t>(
      std::count(order.begin(), order.begin() + 8, a));
  EXPECT_GE(head_a, 3u);
  EXPECT_LE(head_a, 5u);
  EXPECT_EQ(std::count(order.begin(), order.end(), a), 8);
  EXPECT_EQ(drr.queued_jobs(), 0u);
}

TEST(ServeDrr, WeightsSkewServiceProportionally) {
  DrrScheduler drr(0.25);
  const std::size_t heavy = drr.add_tenant(3.0);
  const std::size_t light = drr.add_tenant(1.0);
  for (std::uint64_t i = 0; i < 8; ++i) {
    drr.enqueue(heavy, QueuedJob{i, 1.0, 0, 0.0});
    drr.enqueue(light, QueuedJob{100 + i, 1.0, 0, 0.0});
  }
  const auto order = pop_order(drr, 16);
  ASSERT_EQ(order.size(), 16u);
  const auto head_heavy = static_cast<std::size_t>(
      std::count(order.begin(), order.begin() + 8, heavy));
  // 3:1 weights: about six of the first eight dispatches are heavy's.
  EXPECT_GE(head_heavy, 5u);
  EXPECT_LE(head_heavy, 7u);
}

TEST(ServeDrr, FifoWithinTenantAndDeterministicReplay) {
  const auto run = [] {
    DrrScheduler drr(0.5);
    const std::size_t t0 = drr.add_tenant(1.0);
    const std::size_t t1 = drr.add_tenant(2.0);
    drr.enqueue(t0, QueuedJob{0, 0.7, 0, 0.0});
    drr.enqueue(t0, QueuedJob{1, 0.2, 0, 0.1});
    drr.enqueue(t1, QueuedJob{2, 1.4, 0, 0.0});
    drr.enqueue(t1, QueuedJob{3, 0.3, 0, 0.2});
    std::vector<std::uint64_t> ids;
    QueuedJob j;
    while (drr.pop_next(j)) ids.push_back(j.id);
    return ids;
  };
  const auto ids = run();
  ASSERT_EQ(ids.size(), 4u);
  // FIFO within each tenant, whatever the interleaving.
  EXPECT_LT(std::find(ids.begin(), ids.end(), 0),
            std::find(ids.begin(), ids.end(), 1));
  EXPECT_LT(std::find(ids.begin(), ids.end(), 2),
            std::find(ids.begin(), ids.end(), 3));
  EXPECT_EQ(run(), ids);  // byte-identical replay
}

TEST(ServeDrr, RequeueFrontRestoresHeadAndDeficit) {
  DrrScheduler drr(1.0);
  const std::size_t t = drr.add_tenant(1.0);
  drr.enqueue(t, QueuedJob{7, 0.5, 0, 0.0});
  drr.enqueue(t, QueuedJob{8, 0.5, 0, 0.0});
  QueuedJob j;
  ASSERT_TRUE(drr.pop_next(j));
  EXPECT_EQ(j.id, 7u);
  drr.requeue_front(t, j);  // could not dispatch: put it back
  EXPECT_EQ(drr.queued_jobs(), 2u);
  ASSERT_TRUE(drr.pop_next(j));
  EXPECT_EQ(j.id, 7u);  // still the head, not reordered behind 8
}

TEST(ServeDrr, ShedPicksLowestPriorityLatestArrivalHighestId) {
  DrrScheduler drr(1.0);
  const std::size_t t0 = drr.add_tenant(1.0);
  const std::size_t t1 = drr.add_tenant(1.0);
  drr.enqueue(t0, QueuedJob{0, 1.0, 5, 0.0});
  drr.enqueue(t0, QueuedJob{1, 1.0, 1, 0.0});
  drr.enqueue(t1, QueuedJob{2, 1.0, 1, 2.0});
  drr.enqueue(t1, QueuedJob{3, 1.0, 1, 2.0});

  QueuedJob victim;
  std::size_t vt = 0;
  // Priority 1 ties; arrival 2.0 ties between ids 2 and 3; highest id loses.
  ASSERT_TRUE(drr.shed_lowest_priority(victim, &vt));
  EXPECT_EQ(victim.id, 3u);
  EXPECT_EQ(vt, t1);
  ASSERT_TRUE(drr.shed_lowest_priority(victim, &vt));
  EXPECT_EQ(victim.id, 2u);  // next-latest arrival at priority 1
  ASSERT_TRUE(drr.shed_lowest_priority(victim, &vt));
  EXPECT_EQ(victim.id, 1u);
  ASSERT_TRUE(drr.shed_lowest_priority(victim, &vt));
  EXPECT_EQ(victim.id, 0u);
  EXPECT_FALSE(drr.shed_lowest_priority(victim, &vt));
  EXPECT_EQ(drr.queued_jobs(), 0u);
  EXPECT_NEAR(drr.queued_cost_s(), 0.0, 1e-12);
}

// --- ServeAdmission (virtual-time admission model) ------------------------

TEST(ServeAdmission, AdmitsIdleAndPricesBacklog) {
  AdmissionModel model(AdmissionConfig{1});
  const auto d1 = model.evaluate(0.0, kInf, 1.0);
  EXPECT_TRUE(d1.admitted());
  EXPECT_EQ(d1.backlog_jobs, 0u);
  EXPECT_DOUBLE_EQ(d1.predicted_wait_s, 0.0);
  EXPECT_DOUBLE_EQ(d1.predicted_finish_s, 1.0);

  const auto d2 = model.evaluate(0.0, kInf, 1.0);
  EXPECT_TRUE(d2.admitted());
  EXPECT_EQ(d2.backlog_jobs, 1u);
  EXPECT_DOUBLE_EQ(d2.predicted_wait_s, 1.0);  // queued behind the first
  EXPECT_DOUBLE_EQ(d2.predicted_finish_s, 2.0);
}

TEST(ServeAdmission, RejectsDeadlineBlowersWithoutCommitting) {
  AdmissionModel model(AdmissionConfig{1});
  ASSERT_TRUE(model.evaluate(0.0, kInf, 1.0).admitted());
  const auto rej = model.evaluate(0.0, 1.5, 1.0);  // finish 2.0 > 1.5
  EXPECT_EQ(rej.outcome, AdmissionOutcome::kRejectedDeadline);
  EXPECT_DOUBLE_EQ(rej.predicted_finish_s, 2.0);
  // The rejection did not occupy the model: the same request with a
  // workable deadline is admitted at the same predicted slot.
  const auto ok = model.evaluate(0.0, 2.0, 1.0);
  EXPECT_TRUE(ok.admitted());
  EXPECT_DOUBLE_EQ(ok.predicted_finish_s, 2.0);
}

TEST(ServeAdmission, BacklogDrainsWithVirtualClock) {
  AdmissionModel model(AdmissionConfig{1});
  ASSERT_TRUE(model.evaluate(0.0, kInf, 1.0).admitted());
  EXPECT_EQ(model.backlog_jobs(0.5), 1u);
  EXPECT_EQ(model.backlog_jobs(1.0), 0u);  // finish times <= now drop out
  const auto d = model.evaluate(3.0, kInf, 1.0);
  EXPECT_DOUBLE_EQ(d.predicted_wait_s, 0.0);  // idle again by then
  EXPECT_DOUBLE_EQ(d.predicted_finish_s, 4.0);
}

TEST(ServeAdmission, MultipleExecutorsServeInParallel) {
  AdmissionModel model(AdmissionConfig{2});
  const auto d1 = model.evaluate(0.0, kInf, 1.0);
  const auto d2 = model.evaluate(0.0, kInf, 1.0);
  EXPECT_DOUBLE_EQ(d1.predicted_wait_s, 0.0);
  EXPECT_DOUBLE_EQ(d2.predicted_wait_s, 0.0);  // second modeled executor
  const auto d3 = model.evaluate(0.0, kInf, 1.0);
  EXPECT_DOUBLE_EQ(d3.predicted_wait_s, 1.0);  // both busy until t=1
}

// --- ServeServer (end to end) ---------------------------------------------

TEST(ServeServer, ServedResultsBitIdenticalToDirectMultiply) {
  const auto m0 = gen_uniform_random<double>(150, 150, 5.0, 1.5, 91);
  const auto m1 = gen_powerlaw<double>(150, 150, 5.0, 1.6, 80, 92);
  ServerConfig scfg;
  scfg.engine.workers = 2;
  scfg.tuning = false;  // plain path first; tuned overlays tested below
  Server<double> server(scfg);

  auto h0 = server.submit(m0, m0, SubmitInfo{"alpha", 0, 0.0, kInf});
  auto h1 = server.submit(m1, m1, SubmitInfo{"beta", 0, 0.0, kInf});
  auto h2 = server.submit(m0, m1, SubmitInfo{"alpha", 0, 0.1, kInf});
  server.drain();

  for (auto* h : {&h0, &h1, &h2}) {
    ASSERT_TRUE(h->valid());
    EXPECT_TRUE(h->ready());
    EXPECT_EQ(h->result().status, ServeStatus::kDone);
    EXPECT_FALSE(h->result().degraded);
    EXPECT_FALSE(h->result().tuned_applied.valid);
  }
  EXPECT_TRUE(h0.result().job.c.equals_exact(multiply(m0, m0)));
  EXPECT_TRUE(h1.result().job.c.equals_exact(multiply(m1, m1)));
  EXPECT_TRUE(h2.result().job.c.equals_exact(multiply(m0, m1)));

  const auto s = server.stats();
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.rejected + s.shed + s.failed, 0u);
}

TEST(ServeServer, DegradedAndTunedPathsBothReconstructBitIdentically) {
  const auto a = gen_powerlaw<double>(200, 200, 6.0, 1.6, 100, 93);
  const double c = probe_cost(a, a);
  ASSERT_GT(c, 0.0);

  ServerConfig scfg;
  scfg.engine.workers = 2;
  scfg.tuning = true;
  scfg.tune_latency_s = 4.0 * c;
  Server<double> server(scfg);

  // Cold fingerprint: flagged degraded on the virtual timeline.
  auto cold = server.submit(a, a, SubmitInfo{"alpha", 0, 0.0, kInf});
  // Still inside the modeled tune latency: degraded as well.
  auto tepid = server.submit(a, a, SubmitInfo{"alpha", 0, 2.0 * c, kInf});
  // Past the modeled latency: warm.
  auto warm = server.submit(a, a, SubmitInfo{"alpha", 0, 5.0 * c, kInf});
  server.drain();

  ASSERT_EQ(cold.result().status, ServeStatus::kDone);
  ASSERT_EQ(tepid.result().status, ServeStatus::kDone);
  ASSERT_EQ(warm.result().status, ServeStatus::kDone);
  EXPECT_TRUE(cold.result().degraded);
  EXPECT_TRUE(tepid.result().degraded);
  EXPECT_FALSE(warm.result().degraded);

  // Degraded and warm jobs ran the same overlay — reported on
  // tuned_applied and equal to what choose picks directly...
  const tune::AutoTuner tuner(tune::default_tuner_options(scfg.engine.arch));
  const auto feats = tune::extract_features(a, a, tuner.options().sample_stride,
                                            tuner.options().min_samples);
  const TunedParams expect = tuner.choose(feats, Config{}, sizeof(double));
  EXPECT_TRUE(cold.result().tuned_applied.valid);
  EXPECT_EQ(cold.result().tuned_applied, expect);
  EXPECT_EQ(tepid.result().tuned_applied, expect);
  EXPECT_EQ(warm.result().tuned_applied, cold.result().tuned_applied);

  // ...and every job — degraded or warm — is reconstructible by applying
  // the reported overlay to the submitted Config.
  for (auto* h : {&cold, &tepid, &warm}) {
    Config eff;
    h->result().tuned_applied.apply(eff);
    EXPECT_TRUE(h->result().job.c.equals_exact(multiply(a, a, eff)));
  }

  const auto s = server.stats();
  EXPECT_EQ(s.degraded, 2u);
  EXPECT_EQ(s.completed, 3u);
  // The overlay was computed once for the fingerprint.
  EXPECT_EQ(s.tunes, 1u);
}

TEST(ServeServer, DeadlineRejectionIsStructuredAndResubmissionServes) {
  const auto a = gen_uniform_random<double>(180, 180, 6.0, 1.5, 94);
  const double c = probe_cost(a, a);
  ASSERT_GT(c, 0.0);

  ServerConfig scfg;
  scfg.engine.workers = 1;
  scfg.tuning = false;
  scfg.admission.executors = 1;
  Server<double> server(scfg);

  auto first = server.submit(a, a, SubmitInfo{"alpha", 0, 0.0, kInf});
  ASSERT_TRUE(first.decision().admitted());
  // Behind the backlog, a deadline tighter than one service time cannot
  // hold: rejected up front, resolved before submit returns.
  auto doomed = server.submit(a, a, SubmitInfo{"alpha", 0, 0.0, 0.5 * c});
  EXPECT_TRUE(doomed.ready());
  const auto& d = doomed.decision();
  EXPECT_EQ(d.outcome, AdmissionOutcome::kRejectedDeadline);
  EXPECT_EQ(d.backlog_jobs, 1u);
  EXPECT_GT(d.predicted_wait_s, 0.0);
  EXPECT_GT(d.predicted_finish_s, 0.5 * c);
  EXPECT_EQ(doomed.result().status, ServeStatus::kRejected);

  // The classic client reaction: resubmit later with a workable deadline.
  // The backlog has drained by then, and the served result is bit-identical
  // to the direct multiply.
  auto retry = server.submit(a, a, SubmitInfo{"alpha", 0, 3.0 * c, 10.0 * c});
  EXPECT_TRUE(retry.decision().admitted());
  server.drain();
  ASSERT_EQ(retry.result().status, ServeStatus::kDone);
  EXPECT_TRUE(retry.result().job.c.equals_exact(multiply(a, a)));
  EXPECT_TRUE(first.result().job.c.equals_exact(retry.result().job.c));

  const auto s = server.stats();
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.rejected, 1u);
  ASSERT_EQ(s.tenants.size(), 1u);
  EXPECT_EQ(s.tenants[0].rejected_deadline, 1u);
}

TEST(ServeServer, QuotaMetersPredictedCostSeconds) {
  const auto a = gen_uniform_random<double>(150, 150, 5.0, 1.5, 95);
  const double c = probe_cost(a, a);
  ASSERT_GT(c, 0.0);

  ServerConfig scfg;
  scfg.engine.workers = 2;
  scfg.tuning = false;
  // "metered" can afford one job up front and earns one more every 10
  // virtual seconds; "free" is unmetered.
  scfg.tenants = {TenantConfig{"metered", 1.0, c / 10.0, 1.01 * c},
                  TenantConfig{"free", 1.0, 0.0, 0.0}};
  Server<double> server(scfg);

  auto m1 = server.submit(a, a, SubmitInfo{"metered", 0, 0.0, kInf});
  EXPECT_TRUE(m1.decision().admitted());
  auto m2 = server.submit(a, a, SubmitInfo{"metered", 0, 0.0, kInf});
  EXPECT_EQ(m2.decision().outcome, AdmissionOutcome::kRejectedQuota);
  EXPECT_TRUE(m2.ready());
  EXPECT_EQ(m2.result().status, ServeStatus::kRejected);
  // The unmetered tenant is untouched by its neighbour's empty bucket.
  auto f1 = server.submit(a, a, SubmitInfo{"free", 0, 0.0, kInf});
  EXPECT_TRUE(f1.decision().admitted());
  // Refilled by virtual t=20: admitted again.
  auto m3 = server.submit(a, a, SubmitInfo{"metered", 0, 20.0, kInf});
  EXPECT_TRUE(m3.decision().admitted());
  server.drain();

  EXPECT_TRUE(m3.result().job.c.equals_exact(multiply(a, a)));
  const auto s = server.stats();
  ASSERT_EQ(s.tenants.size(), 2u);
  EXPECT_EQ(s.tenants[0].name, "metered");
  EXPECT_EQ(s.tenants[0].rejected_quota, 1u);
  EXPECT_EQ(s.tenants[0].admitted, 2u);
  EXPECT_EQ(s.tenants[1].rejected_quota, 0u);
}

TEST(ServeServer, ArenaCeilingShedsOversizedJobsOutright) {
  const auto a = gen_uniform_random<double>(150, 150, 5.0, 1.5, 96);
  const Config cfg;
  const std::size_t pool = estimate_chunk_pool_bytes(a, a, cfg);
  ASSERT_GT(pool, 0u);

  ServerConfig scfg;
  scfg.engine.workers = 1;
  scfg.tuning = false;
  scfg.arena_ceiling_bytes = pool / 2;  // no job can ever fit
  Server<double> server(scfg);

  auto h = server.submit(a, a, SubmitInfo{"alpha", 0, 0.0, kInf});
  EXPECT_TRUE(h.decision().admitted());  // admission saw no memory problem
  server.drain();  // must terminate: shed, not stalled
  ASSERT_EQ(h.result().status, ServeStatus::kShed);
  EXPECT_EQ(h.result().admission.outcome, AdmissionOutcome::kShedMemory);
  const auto s = server.stats();
  EXPECT_EQ(s.shed, 1u);
  EXPECT_EQ(s.completed, 0u);
}

TEST(ServeServer, MemoryPressureShedsLowestPriorityAndKeepsServing) {
  const auto a = gen_uniform_random<double>(150, 150, 5.0, 1.5, 97);
  const Config cfg;
  const std::size_t pool = estimate_chunk_pool_bytes(a, a, cfg);
  ASSERT_GT(pool, 0u);

  ServerConfig scfg;
  scfg.engine.workers = 2;
  scfg.tuning = false;
  scfg.admission.executors = 2;
  // Two modeled executors but room for only one job's pool: the virtual
  // timeline is permanently memory-gated, so the queue cap sheds.
  scfg.arena_ceiling_bytes = pool + pool / 2;
  scfg.shed_queue_jobs = 2;
  Server<double> server(scfg);

  const int priorities[6] = {9, 9, 3, 1, 2, 0};
  std::vector<ServeHandle<double>> handles;
  for (int i = 0; i < 6; ++i)
    handles.push_back(
        server.submit(a, a, SubmitInfo{"alpha", priorities[i], 0.0, kInf}));
  server.drain();  // terminates: serves what fits, sheds the overflow

  std::vector<int> shed_priorities;
  int done = 0;
  for (auto& h : handles) {
    const auto& r = h.result();
    if (r.status == ServeStatus::kShed)
      shed_priorities.push_back(r.priority);
    else if (r.status == ServeStatus::kDone) {
      ++done;
      EXPECT_TRUE(r.job.c.equals_exact(multiply(a, a)));
    }
  }
  // The two lowest-priority jobs are the victims; everything else serves.
  std::sort(shed_priorities.begin(), shed_priorities.end());
  EXPECT_EQ(shed_priorities, (std::vector<int>{0, 1}));
  EXPECT_EQ(done, 4);
  const auto s = server.stats();
  EXPECT_EQ(s.shed, 2u);
  EXPECT_EQ(s.completed, 4u);
}

TEST(ServeServer, WeightedFairShareOrdersVirtualDispatch) {
  const auto a = gen_uniform_random<double>(120, 120, 4.0, 1.0, 98);
  const double c = probe_cost(a, a);
  ASSERT_GT(c, 0.0);

  ServerConfig scfg;
  scfg.engine.workers = 2;
  scfg.tuning = false;
  scfg.admission.executors = 1;  // one modeled executor serializes dispatch
  scfg.drr_quantum_s = c / 4.0;
  scfg.tenants = {TenantConfig{"heavy", 3.0, 0.0, 0.0},
                  TenantConfig{"light", 1.0, 0.0, 0.0}};
  Server<double> server(scfg);

  std::vector<ServeHandle<double>> heavy, light;
  for (int i = 0; i < 8; ++i) {
    heavy.push_back(server.submit(a, a, SubmitInfo{"heavy", 0, 0.0, kInf}));
    light.push_back(server.submit(a, a, SubmitInfo{"light", 0, 0.0, kInf}));
  }
  server.drain();

  // Dispatch order on the single modeled executor = virtual_start order.
  std::vector<std::pair<double, int>> order;  // (start, is_heavy)
  for (auto& h : heavy) order.emplace_back(h.result().virtual_start_s, 1);
  for (auto& h : light) order.emplace_back(h.result().virtual_start_s, 0);
  std::sort(order.begin(), order.end());
  int head_heavy = 0;
  for (int i = 0; i < 8; ++i) head_heavy += order[static_cast<std::size_t>(i)].second;
  // 3:1 weights: roughly six of the first eight virtual dispatches belong
  // to the heavy tenant.
  EXPECT_GE(head_heavy, 5);
  EXPECT_LE(head_heavy, 7);

  // Everyone drains eventually; the fair-share currency balances exactly.
  const auto s = server.stats();
  ASSERT_EQ(s.tenants.size(), 2u);
  EXPECT_NEAR(s.tenants[0].served_cost_s, s.tenants[1].served_cost_s,
              1e-9 * std::max(1.0, s.tenants[0].served_cost_s));
  EXPECT_EQ(s.completed, 16u);
  EXPECT_EQ(s.deadline_misses, 0u);
}

TEST(ServeServer, SubmitRejectsMalformedOperandsBeforePricing) {
  // Pricing indexes B's rows by A's column ids; both operands point one
  // row past the end of B, so the checks must precede it.
  const auto b = gen_uniform_random<double>(8, 8, 3.0, 1.0, 107);
  ServerConfig scfg;
  scfg.tuning = false;
  Server<double> server(scfg);
  const auto mismatched = testutil::single_entry<double>(4, 9, 8);
  EXPECT_THROW((void)server.submit(mismatched, b, SubmitInfo{}),
               std::invalid_argument);
  const auto bad_column = testutil::single_entry<double>(4, 8, 8);
  EXPECT_THROW((void)server.submit(bad_column, b, SubmitInfo{}),
               std::invalid_argument);
  EXPECT_THROW((void)server.submit(b, bad_column, SubmitInfo{}),
               std::invalid_argument);

  const auto s = server.stats();
  EXPECT_EQ(s.submitted, 0u);
  EXPECT_TRUE(s.tenants.empty());
  EXPECT_EQ(server.engine().stats().jobs_submitted, 0u);
}

TEST(ServeServer, StatsMetricsAndDestructorDrainAgree) {
  const auto a = gen_uniform_random<double>(150, 150, 5.0, 1.5, 99);
  const double c = probe_cost(a, a);
  ASSERT_GT(c, 0.0);

  std::vector<ServeHandle<double>> handles;
  {
    ServerConfig scfg;
    scfg.engine.workers = 2;
    scfg.tuning = false;
    Server<double> server(scfg);
    for (int i = 0; i < 4; ++i)
      handles.push_back(
          server.submit(a, a, SubmitInfo{i % 2 ? "beta" : "alpha", 0,
                                         0.1 * i, kInf}));
    // One guaranteed rejection for the counters: deadline == arrival.
    handles.push_back(
        server.submit(a, a, SubmitInfo{"beta", 0, 0.4, 0.4}));
    server.drain();
    // The engine saw only the admitted jobs.
    EXPECT_EQ(server.engine().metrics().jobs, 4u);
    const auto s = server.stats();
    EXPECT_EQ(s.submitted, 5u);
    EXPECT_EQ(s.admitted, 4u);
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.completed, 4u);
    EXPECT_EQ(s.queued_jobs, 0u);
    EXPECT_EQ(s.in_flight_jobs, 0u);
    EXPECT_GE(s.queue_depth_peak, 1u);
    // Tenant rows add up to the totals.
    std::uint64_t sub = 0, adm = 0;
    for (const auto& t : s.tenants) {
      sub += t.submitted;
      adm += t.admitted;
    }
    EXPECT_EQ(sub, s.submitted);
    EXPECT_EQ(adm, s.admitted);
  }  // destructor drains + joins (everything already resolved here)

  for (auto& h : handles) EXPECT_TRUE(h.ready());
}

TEST(ServeServer, DestructorResolvesQueuedJobsWithoutExplicitDrain) {
  const auto a = gen_uniform_random<double>(150, 150, 5.0, 1.5, 100);
  std::vector<ServeHandle<double>> handles;
  {
    ServerConfig scfg;
    scfg.engine.workers = 1;
    scfg.tuning = false;
    Server<double> server(scfg);
    for (int i = 0; i < 6; ++i)
      handles.push_back(server.submit(a, a, SubmitInfo{"alpha", 0, 0.0, kInf}));
    // No drain: the destructor must flush the virtual timeline itself.
  }
  const auto direct = multiply(a, a);
  for (auto& h : handles) {
    ASSERT_TRUE(h.ready());
    ASSERT_EQ(h.result().status, ServeStatus::kDone);
    EXPECT_TRUE(h.result().job.c.equals_exact(direct));
  }
}

// --- ServeProperty (decision-stream determinism) --------------------------

struct TraceEvent {
  int matrix;
  const char* tenant;
  int priority;
  double arrival;
  double deadline;
};

struct RunOutput {
  std::vector<ServeHandle<double>> handles;
  ServeStats stats;
};

RunOutput run_trace(const std::vector<Csr<double>>& mats,
                    const std::vector<TraceEvent>& trace, unsigned workers,
                    double cbar, std::size_t pool,
                    std::chrono::milliseconds pace = {}, Config job_cfg = {}) {
  ServerConfig scfg;
  scfg.engine.workers = workers;
  scfg.tuning = true;
  scfg.tune_latency_s = 2.0 * cbar;
  scfg.admission.executors = 2;
  scfg.drr_quantum_s = cbar / 4.0;
  scfg.arena_ceiling_bytes = pool + pool / 2;
  scfg.shed_queue_jobs = 3;
  scfg.tenants = {TenantConfig{"alpha", 2.0, 0.0, 0.0},
                  TenantConfig{"beta", 1.0, cbar / 4.0, 2.5 * cbar}};
  RunOutput out;
  Server<double> server(scfg);
  for (const TraceEvent& e : trace) {
    if (pace.count() > 0) std::this_thread::sleep_for(pace);
    const auto& am = mats[static_cast<std::size_t>(e.matrix)];
    out.handles.push_back(server.submit(
        am, am, SubmitInfo{e.tenant, e.priority, e.arrival, e.deadline},
        job_cfg));
  }
  server.drain();
  out.stats = server.stats();
  return out;
}

TEST(ServeProperty, DecisionStreamIndependentOfWorkerCount) {
  std::vector<Csr<double>> mats;
  mats.push_back(gen_uniform_random<double>(120, 120, 5.0, 1.5, 101));
  mats.push_back(gen_powerlaw<double>(160, 160, 5.0, 1.6, 80, 102));
  mats.push_back(gen_uniform_random<double>(140, 140, 4.0, 1.0, 103));
  const double c0 = probe_cost(mats[0], mats[0]);
  ASSERT_GT(c0, 0.0);
  std::size_t pool = 0;
  for (const auto& m : mats)
    pool = std::max(pool, estimate_chunk_pool_bytes(m, m, Config{}));

  // A deliberately messy open-loop trace: quota pressure on beta, an
  // impossible deadline, priority spread for the shed path, repeats of the
  // same fingerprint across the tune latency.
  const std::vector<TraceEvent> trace = {
      {0, "alpha", 5, 0.0, kInf},
      {1, "beta", 0, 0.0, kInf},
      {0, "beta", 1, 0.0, kInf},
      {2, "alpha", 2, 0.0, kInf},
      {0, "beta", 0, 0.0, kInf},      // quota bites somewhere around here
      {1, "alpha", 3, 0.1 * c0, 0.1 * c0},  // deadline == arrival: rejected
      {0, "alpha", 0, 0.5 * c0, kInf},
      {2, "beta", 4, 1.0 * c0, kInf},
      {0, "alpha", 1, 1.5 * c0, kInf},
      {1, "alpha", 2, 2.0 * c0, kInf},
      {0, "beta", 0, 3.0 * c0, 20.0 * c0},
      {2, "alpha", 5, 3.5 * c0, kInf},
      {0, "alpha", 0, 4.0 * c0, kInf},  // past tune latency: tuned plan
      {1, "beta", 1, 5.0 * c0, kInf},
  };

  auto r1 = run_trace(mats, trace, 1, c0, pool);
  auto r4 = run_trace(mats, trace, 4, c0, pool);

  ASSERT_EQ(r1.handles.size(), trace.size());
  ASSERT_EQ(r4.handles.size(), trace.size());
  int admitted = 0, rejected = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    auto& a = r1.handles[i].result();
    auto& b = r4.handles[i].result();
    EXPECT_EQ(a.admission, b.admission) << "submission " << i;
    EXPECT_EQ(a.status, b.status) << "submission " << i;
    EXPECT_EQ(a.degraded, b.degraded) << "submission " << i;
    EXPECT_EQ(a.tuned_applied, b.tuned_applied) << "submission " << i;
    EXPECT_EQ(a.virtual_start_s, b.virtual_start_s) << "submission " << i;
    EXPECT_EQ(a.virtual_finish_s, b.virtual_finish_s) << "submission " << i;
    EXPECT_EQ(a.deadline_missed, b.deadline_missed) << "submission " << i;
    if (a.served()) {
      // Bit-identical payloads across worker counts, and against a direct
      // multiply under the reconstructed effective Config.
      EXPECT_TRUE(a.job.c.equals_exact(b.job.c)) << "submission " << i;
      const auto& m = mats[static_cast<std::size_t>(trace[i].matrix)];
      Config eff;
      a.tuned_applied.apply(eff);
      EXPECT_TRUE(a.job.c.equals_exact(multiply(m, m, eff)))
          << "submission " << i;
    }
    admitted += a.admission.admitted() ? 1 : 0;
    rejected += a.status == ServeStatus::kRejected ? 1 : 0;
  }
  EXPECT_GT(admitted, 0);
  EXPECT_GT(rejected, 0);  // the trace exercised a rejection path

  // Full counter state matches field by field, tenants included.
  const ServeStats &s1 = r1.stats, &s4 = r4.stats;
  EXPECT_EQ(s1.submitted, s4.submitted);
  EXPECT_EQ(s1.admitted, s4.admitted);
  EXPECT_EQ(s1.rejected, s4.rejected);
  EXPECT_EQ(s1.shed, s4.shed);
  EXPECT_EQ(s1.completed, s4.completed);
  EXPECT_EQ(s1.failed, s4.failed);
  EXPECT_EQ(s1.degraded, s4.degraded);
  EXPECT_EQ(s1.deadline_misses, s4.deadline_misses);
  EXPECT_EQ(s1.queue_depth_peak, s4.queue_depth_peak);
  ASSERT_EQ(s1.tenants.size(), s4.tenants.size());
  for (std::size_t t = 0; t < s1.tenants.size(); ++t) {
    const TenantStats &ta = s1.tenants[t], &tb = s4.tenants[t];
    EXPECT_EQ(ta.name, tb.name);
    EXPECT_EQ(ta.submitted, tb.submitted);
    EXPECT_EQ(ta.admitted, tb.admitted);
    EXPECT_EQ(ta.rejected_deadline, tb.rejected_deadline);
    EXPECT_EQ(ta.rejected_quota, tb.rejected_quota);
    EXPECT_EQ(ta.shed, tb.shed);
    EXPECT_EQ(ta.degraded, tb.degraded);
    EXPECT_EQ(ta.deadline_misses, tb.deadline_misses);
    EXPECT_EQ(ta.served_cost_s, tb.served_cost_s);
    // completed/failed are post-drain, so they are deterministic too.
    EXPECT_EQ(ta.completed, tb.completed);
    EXPECT_EQ(ta.failed, tb.failed);
  }
}

/// Sampling-based pool sizing (Config::PoolSizing::kSampled) is a pure
/// function of the submitted matrices, so admission pricing and the
/// arena-ceiling backpressure it feeds must stay replayable: the decision
/// stream is field-exact across worker counts, same as the closed-form
/// default. A regression here means the estimator leaked run-time state
/// (thread timing, RNG, shared caches) into its output.
TEST(ServeProperty, DecisionStreamFieldExactUnderSampledPoolSizing) {
  Config sampled;
  sampled.pool_sizing = PoolSizing::kSampled;
  std::vector<Csr<double>> mats;
  mats.push_back(gen_uniform_random<double>(120, 120, 5.0, 1.5, 101));
  mats.push_back(gen_powerlaw<double>(160, 160, 5.0, 1.6, 80, 102));
  mats.push_back(gen_block_dense<double>(144, 144, 8, 2, 103));
  const double c0 = probe_cost(mats[0], mats[0]);
  ASSERT_GT(c0, 0.0);
  std::size_t pool = 0;
  for (const auto& m : mats)
    pool = std::max(pool, estimate_chunk_pool_bytes(m, m, sampled));

  const std::vector<TraceEvent> trace = {
      {0, "alpha", 4, 0.0, kInf},
      {1, "beta", 1, 0.0, kInf},
      {2, "alpha", 2, 0.0, kInf},
      {0, "beta", 0, 0.0, kInf},
      {1, "alpha", 3, 0.2 * c0, 0.2 * c0},  // deadline == arrival: rejected
      {2, "beta", 0, 0.5 * c0, kInf},       // quota pressure on beta
      {0, "alpha", 1, 1.0 * c0, kInf},
      {1, "beta", 5, 2.5 * c0, kInf},
      {2, "alpha", 0, 3.0 * c0, kInf},  // past tune latency: tuned plan
      {0, "alpha", 2, 4.0 * c0, kInf},
  };

  auto r1 = run_trace(mats, trace, 1, c0, pool, {}, sampled);
  auto r4 = run_trace(mats, trace, 4, c0, pool, {}, sampled);

  ASSERT_EQ(r1.handles.size(), trace.size());
  ASSERT_EQ(r4.handles.size(), trace.size());
  int admitted = 0, rejected = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    auto& a = r1.handles[i].result();
    auto& b = r4.handles[i].result();
    EXPECT_EQ(a.admission, b.admission) << "submission " << i;
    EXPECT_EQ(a.status, b.status) << "submission " << i;
    EXPECT_EQ(a.degraded, b.degraded) << "submission " << i;
    EXPECT_EQ(a.tuned_applied, b.tuned_applied) << "submission " << i;
    EXPECT_EQ(a.virtual_start_s, b.virtual_start_s) << "submission " << i;
    EXPECT_EQ(a.virtual_finish_s, b.virtual_finish_s) << "submission " << i;
    EXPECT_EQ(a.deadline_missed, b.deadline_missed) << "submission " << i;
    if (a.served()) {
      EXPECT_TRUE(a.job.c.equals_exact(b.job.c)) << "submission " << i;
    }
    admitted += a.admission.admitted() ? 1 : 0;
    rejected += a.status == ServeStatus::kRejected ? 1 : 0;
  }
  EXPECT_GT(admitted, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(r1.stats.submitted, r4.stats.submitted);
  EXPECT_EQ(r1.stats.admitted, r4.stats.admitted);
  EXPECT_EQ(r1.stats.rejected, r4.stats.rejected);
  EXPECT_EQ(r1.stats.completed, r4.stats.completed);
  EXPECT_EQ(r1.stats.degraded, r4.stats.degraded);
}

/// Decisions are a pure function of the submission trace's *virtual*
/// times, never of wall-clock interleaving. Back-to-back submission (every
/// arrival lands while the engine still churns on the first jobs) and
/// paced submission (each execution completes before, between, or after
/// later arrivals) must produce field-exact decision streams, identical
/// counters, and bit-identical payloads.
TEST(ServeProperty, DecisionStreamInvariantToTunerThreadTiming) {
  std::vector<Csr<double>> mats;
  mats.push_back(gen_uniform_random<double>(120, 120, 5.0, 1.5, 101));
  mats.push_back(gen_powerlaw<double>(160, 160, 5.0, 1.6, 80, 102));
  const double c0 = probe_cost(mats[0], mats[0]);
  ASSERT_GT(c0, 0.0);
  std::size_t pool = 0;
  for (const auto& m : mats)
    pool = std::max(pool, estimate_chunk_pool_bytes(m, m, Config{}));

  // Repeats of both fingerprints straddling tune_latency_s (= 2 c0): early
  // arrivals are degraded, late ones warm, whichever real thread
  // dispatched what, whenever.
  const std::vector<TraceEvent> trace = {
      {0, "alpha", 3, 0.0, kInf},
      {1, "beta", 1, 0.0, kInf},
      {0, "beta", 2, 0.5 * c0, kInf},
      {1, "alpha", 0, 1.0 * c0, kInf},
      {0, "alpha", 4, 1.9 * c0, kInf},   // still inside the tune latency
      {1, "beta", 2, 2.5 * c0, kInf},    // past it: tuned plan
      {0, "alpha", 1, 3.0 * c0, kInf},
      {1, "alpha", 5, 4.0 * c0, kInf},
      {0, "beta", 0, 5.0 * c0, kInf},
  };

  auto fast = run_trace(mats, trace, 4, c0, pool);
  auto slow = run_trace(mats, trace, 4, c0, pool,
                        std::chrono::milliseconds(10));

  ASSERT_EQ(fast.handles.size(), trace.size());
  int degraded = 0, tuned = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    auto& a = fast.handles[i].result();
    auto& b = slow.handles[i].result();
    EXPECT_EQ(a.admission, b.admission) << "submission " << i;
    EXPECT_EQ(a.status, b.status) << "submission " << i;
    EXPECT_EQ(a.degraded, b.degraded) << "submission " << i;
    EXPECT_EQ(a.tuned_applied, b.tuned_applied) << "submission " << i;
    EXPECT_EQ(a.virtual_start_s, b.virtual_start_s) << "submission " << i;
    EXPECT_EQ(a.virtual_finish_s, b.virtual_finish_s) << "submission " << i;
    if (a.served()) {
      EXPECT_TRUE(a.job.c.equals_exact(b.job.c)) << "submission " << i;
      degraded += a.degraded ? 1 : 0;
      tuned += (!a.degraded && a.tuned_applied.valid) ? 1 : 0;
    }
  }
  EXPECT_GE(degraded, 2);  // the trace really exercised degradation
  EXPECT_GE(tuned, 2);     // ... and the post-latency warm path
  EXPECT_EQ(fast.stats.degraded, slow.stats.degraded);
  EXPECT_EQ(fast.stats.completed, slow.stats.completed);
  EXPECT_EQ(fast.stats.degraded, static_cast<std::size_t>(degraded));
  // Tunes are per-fingerprint, not per-job, and independent of pacing.
  EXPECT_EQ(fast.stats.tunes, 2u);
  EXPECT_EQ(slow.stats.tunes, 2u);
}

}  // namespace
}  // namespace acs::serve
