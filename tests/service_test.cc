// StreamingService tests: sharding parity against a single
// StreamingBatcher (N=4 shards + pump threads, interleaved bursts with
// backpressure engaged), backpressure/shedding statuses, ops-counter
// sanity, work-conserving admission, pump wake-ups, and shutdown-flush.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/causal_tad.h"
#include "eval/datasets.h"
#include "eval/harness.h"
#include "models/scorer.h"
#include "serve/service.h"
#include "serve/streaming.h"

namespace causaltad {
namespace {

using core::CausalTad;
using eval::BuildExperiment;
using eval::ExperimentData;
using eval::Scale;
using eval::XianConfig;
using serve::PushStatus;
using serve::ServiceOptions;
using serve::SessionId;
using serve::StreamingBatcher;
using serve::StreamingService;
using serve::StreamingSession;

const ExperimentData& Data() {
  static const ExperimentData* data =
      new ExperimentData(BuildExperiment(XianConfig(Scale::kSmoke)));
  return *data;
}

const CausalTad* FittedCausal() {
  static const models::TrajectoryScorer* scorer = [] {
    auto owned = eval::MakeScorer("CausalTAD", Data(), Scale::kSmoke);
    models::FitOptions options;
    options.epochs = 2;
    options.lr = 3e-3f;
    options.seed = 17;
    owned->Fit(Data().train, options);
    return owned.release();
  }();
  return dynamic_cast<const CausalTad*>(scorer);
}

/// Relative parity tolerance (scores are float32 sums; see streaming_test).
double Tol(double reference, double rel = 1e-6) {
  return rel * std::max(1.0, std::abs(reference));
}

std::vector<traj::Trip> ParityTrips() {
  std::vector<traj::Trip> trips = eval::Subsample(Data().id_test, 6, 7);
  const auto detours = eval::Subsample(Data().id_detour, 2, 8);
  trips.insert(trips.end(), detours.begin(), detours.end());
  return trips;
}

/// Reference scores from one single-consumer StreamingBatcher.
std::vector<std::vector<double>> BatcherReference(
    const CausalTad* causal, const std::vector<traj::Trip>& trips) {
  StreamingBatcher batcher(causal);
  std::vector<StreamingSession> sessions;
  for (const auto& trip : trips) sessions.push_back(batcher.Begin(trip));
  for (size_t i = 0; i < trips.size(); ++i) {
    for (const auto segment : trips[i].route.segments) {
      sessions[i].Push(segment);
    }
    sessions[i].End();
  }
  batcher.Flush();
  std::vector<std::vector<double>> scores(trips.size());
  for (size_t i = 0; i < trips.size(); ++i) scores[i] = sessions[i].Poll();
  return scores;
}

TEST(ServiceTest, ShardedPumpedParityWithSingleBatcher) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const auto trips = ParityTrips();
  const auto reference = BatcherReference(causal, trips);

  ServiceOptions options;
  options.num_shards = 4;
  options.pump = true;
  options.max_session_pending = 2;  // tight, so backpressure engages
  options.max_shard_queued = 1024;
  options.batcher.max_batch_rows = 8;
  StreamingService service(causal, options);
  EXPECT_EQ(service.num_shards(), 4);

  // Interleaved bursts: every sweep tries to push a 3-point burst per
  // session; rejected pushes retry on a later sweep while the pump
  // threads drain.
  std::vector<SessionId> ids;
  for (const auto& trip : trips) ids.push_back(service.Begin(trip));
  std::vector<size_t> fed(trips.size(), 0);
  std::vector<bool> ended(trips.size(), false);
  bool done = false;
  while (!done) {
    done = true;
    for (size_t i = 0; i < trips.size(); ++i) {
      const size_t route = trips[i].route.segments.size();
      for (int burst = 0; burst < 3 && fed[i] < route; ++burst) {
        if (service.Push(ids[i], trips[i].route.segments[fed[i]]) !=
            PushStatus::kAccepted) {
          std::this_thread::yield();
          break;
        }
        ++fed[i];
      }
      if (fed[i] < route) {
        done = false;
      } else if (!ended[i]) {
        service.End(ids[i]);
        ended[i] = true;
      }
    }
  }
  service.Shutdown();

  const serve::ServiceStats stats = service.stats();
  EXPECT_GT(stats.rejected_session_full, 0)
      << "backpressure never engaged; tighten the test's bounds";
  EXPECT_EQ(service.queued_points(), 0);

  for (size_t i = 0; i < trips.size(); ++i) {
    const std::vector<double> scores = service.Poll(ids[i]);
    ASSERT_EQ(scores.size(), reference[i].size()) << "trip " << i;
    for (size_t k = 0; k < scores.size(); ++k) {
      EXPECT_NEAR(scores[k], reference[i][k], Tol(reference[i][k]))
          << "trip=" << i << " k=" << k + 1;
    }
  }
}

TEST(ServiceTest, PushReportsBackpressureAndShedding) {
  const CausalTad* causal = FittedCausal();
  const auto trips = ParityTrips();
  const traj::Trip& trip = trips[0];
  ASSERT_GE(trip.route.size(), 3);

  ServiceOptions options;
  options.num_shards = 1;  // both sessions share the shard
  options.pump = false;
  options.max_session_pending = 2;
  options.max_shard_queued = 3;
  StreamingService service(causal, options);

  const SessionId a = service.Begin(trip);
  const SessionId b = service.Begin(trip);
  EXPECT_EQ(service.Push(a, trip.route.segments[0]), PushStatus::kAccepted);
  EXPECT_EQ(service.Push(a, trip.route.segments[1]), PushStatus::kAccepted);
  // Session a is at its per-session bound; the shard still has room.
  EXPECT_EQ(service.Push(a, trip.route.segments[2]),
            PushStatus::kSessionFull);
  EXPECT_EQ(service.Push(b, trip.route.segments[0]), PushStatus::kAccepted);
  // The shard is at its global bound; even the under-bound session sheds.
  EXPECT_EQ(service.Push(b, trip.route.segments[1]), PushStatus::kShardFull);

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.points_accepted, 3);
  EXPECT_EQ(stats.rejected_session_full, 1);
  EXPECT_EQ(stats.rejected_shard_full, 1);

  // Draining reopens admission.
  service.Flush();
  EXPECT_EQ(service.Push(a, trip.route.segments[2]), PushStatus::kAccepted);
  service.Flush();
  service.End(a);
  service.End(b);
}

TEST(ServiceTest, StepAllIsWorkConserving) {
  const CausalTad* causal = FittedCausal();
  const auto trips = ParityTrips();
  const traj::Trip& trip = trips[0];
  ASSERT_GE(trip.route.size(), 3);
  ServiceOptions options;
  options.num_shards = 1;
  options.pump = false;  // the test is the pump
  StreamingService service(causal, options);

  // A lone queued point is admitted by the very next pass.
  const SessionId single = service.Begin(trip);
  EXPECT_EQ(service.StepAll(), 0);
  EXPECT_EQ(service.Push(single, trip.route.segments[0]),
            PushStatus::kAccepted);
  EXPECT_EQ(service.StepAll(), 1);
  EXPECT_EQ(service.Poll(single).size(), 1u);

  // A burst drains one point per pass, in feed order.
  const SessionId burst = service.Begin(trip);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(service.Push(burst, trip.route.segments[k]),
              PushStatus::kAccepted);
  }
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(service.StepAll(), 1) << "burst point " << k;
    const std::vector<double> scores = service.Poll(burst);
    ASSERT_EQ(scores.size(), 1u) << "burst point " << k;
    const double reference = causal->Score(trip, k + 1);
    EXPECT_NEAR(scores[0], reference, Tol(reference)) << "burst point " << k;
  }
  EXPECT_EQ(service.queued_points(), 0);
}

TEST(ServiceTest, CountersAndHistogramSanity) {
  const CausalTad* causal = FittedCausal();
  const auto trips = ParityTrips();
  ServiceOptions options;
  options.num_shards = 2;
  options.pump = false;
  options.max_session_pending = 0;  // unbounded: count exactness
  options.max_shard_queued = 0;
  options.batcher.max_batch_rows = 16;
  StreamingService service(causal, options);

  int64_t total = 0;
  std::vector<SessionId> ids;
  for (const auto& trip : trips) {
    ids.push_back(service.Begin(trip));
    for (const auto segment : trip.route.segments) {
      ASSERT_EQ(service.Push(ids.back(), segment), PushStatus::kAccepted);
      ++total;
    }
    service.End(ids.back());
  }
  service.Flush();

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sessions_begun, static_cast<int64_t>(trips.size()));
  EXPECT_EQ(stats.points_accepted, total);
  EXPECT_EQ(stats.points_scored, total);
  EXPECT_EQ(stats.rejected_session_full, 0);
  EXPECT_EQ(stats.rejected_shard_full, 0);
  EXPECT_GT(stats.steps, 0);
  EXPECT_GT(stats.step_occupancy, 0.0);
  EXPECT_LE(stats.step_occupancy, 1.0);
  EXPECT_GT(stats.points_per_sec, 0.0);
  EXPECT_GT(stats.queue_wait_p50_ms, 0.0);
  EXPECT_LE(stats.queue_wait_p50_ms, stats.queue_wait_p95_ms);
  EXPECT_LE(stats.queue_wait_p95_ms, stats.queue_wait_p99_ms);
}

TEST(ServiceTest, ShutdownFlushesAllShards) {
  const CausalTad* causal = FittedCausal();
  const auto trips = ParityTrips();
  auto service = std::make_unique<StreamingService>(causal, [] {
    ServiceOptions options;
    options.num_shards = 4;
    options.pump = true;
    options.max_session_pending = 0;  // queue everything, then shut down
    options.max_shard_queued = 0;
    return options;
  }());

  std::vector<SessionId> ids;
  for (const auto& trip : trips) {
    ids.push_back(service->Begin(trip));
    for (const auto segment : trip.route.segments) {
      ASSERT_EQ(service->Push(ids.back(), segment), PushStatus::kAccepted);
    }
    service->End(ids.back());
  }
  service->Shutdown();  // must flush every queued point on every shard
  EXPECT_EQ(service->queued_points(), 0);
  for (size_t i = 0; i < trips.size(); ++i) {
    const std::vector<double> scores = service->Poll(ids[i]);
    ASSERT_EQ(static_cast<int64_t>(scores.size()), trips[i].route.size())
        << "trip " << i;
    const double reference = causal->Score(trips[i], trips[i].route.size());
    EXPECT_NEAR(scores.back(), reference, Tol(reference)) << "trip " << i;
  }
  // Sessions were ended and fully polled: nothing should stay tracked.
  EXPECT_EQ(service->tracked_sessions(), 0);
  service.reset();  // double Shutdown via the destructor is a no-op
}

// Multi-producer soak: >= 8 threads drive one StreamingService at once
// (the matching wire-level soak — 8 net::Client connections over one
// net::Server loopback — lives in net_test.cc). Every producer owns its
// sessions; the assertions are no deadlock (the test completing), no
// lost or duplicated score deltas, and per-point parity with a
// single-producer replay.
TEST(ServiceTest, MultiProducerSoakMatchesSingleProducerReplay) {
  const CausalTad* causal = FittedCausal();
  const auto trips = ParityTrips();
  const auto reference = BatcherReference(causal, trips);

  ServiceOptions options;
  options.num_shards = 2;
  options.pump = true;
  options.max_session_pending = 4;  // tight: producers contend and retry
  options.batcher.max_batch_rows = 16;
  StreamingService service(causal, options);

  constexpr int kProducers = 8;
  std::vector<std::vector<SessionId>> ids(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Each producer streams every parity trip through its own sessions.
      ids[p].reserve(trips.size());
      for (const auto& trip : trips) ids[p].push_back(service.Begin(trip));
      for (size_t i = 0; i < trips.size(); ++i) {
        for (const auto segment : trips[i].route.segments) {
          while (service.Push(ids[p][i], segment) != PushStatus::kAccepted) {
            std::this_thread::yield();
          }
        }
        service.End(ids[p][i]);
      }
    });
  }
  for (auto& producer : producers) producer.join();
  service.Shutdown();

  int64_t points = 0;
  for (const auto& trip : trips) points += trip.route.size();
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.points_accepted, kProducers * points);
  EXPECT_EQ(stats.points_scored, kProducers * points);  // none lost/duped
  for (int p = 0; p < kProducers; ++p) {
    for (size_t i = 0; i < trips.size(); ++i) {
      const std::vector<double> scores = service.Poll(ids[p][i]);
      ASSERT_EQ(scores.size(), reference[i].size())
          << "producer=" << p << " trip=" << i;
      for (size_t k = 0; k < scores.size(); ++k) {
        EXPECT_NEAR(scores[k], reference[i][k], Tol(reference[i][k]))
            << "producer=" << p << " trip=" << i << " k=" << k + 1;
      }
    }
  }
  EXPECT_EQ(service.tracked_sessions(), 0);
}

// Regression (PR 5): a Push racing Shutdown could be accepted after the
// pumps joined and the final flush ran — the point sat queued forever and
// its score was lost. Push after Shutdown must be terminal instead.
TEST(ServiceTest, PushAfterShutdownIsTerminalNotSilentlyDropped) {
  const CausalTad* causal = FittedCausal();
  const auto trips = ParityTrips();
  const traj::Trip& trip = trips[0];
  ASSERT_GE(trip.route.size(), 2);

  StreamingService service(causal, ServiceOptions{});
  const SessionId id = service.Begin(trip);
  ASSERT_EQ(service.Push(id, trip.route.segments[0]), PushStatus::kAccepted);
  service.Shutdown();
  // On the unfixed ordering this returned kAccepted and left the point
  // queued with every pump dead.
  EXPECT_EQ(service.Push(id, trip.route.segments[1]), PushStatus::kShutdown);
  EXPECT_EQ(service.queued_points(), 0);
  EXPECT_EQ(service.Poll(id).size(), 1u);  // the accepted point was scored
}

// The same race, driven concurrently: every Push that returned kAccepted
// must have a score after Shutdown, no matter how the producers interleave
// with it.
TEST(ServiceTest, ShutdownRaceNeverLosesAcceptedPushes) {
  const CausalTad* causal = FittedCausal();
  const auto trips = ParityTrips();

  ServiceOptions options;
  options.num_shards = 2;
  options.pump = true;
  options.max_session_pending = 0;  // only shutdown can reject
  options.max_shard_queued = 0;
  StreamingService service(causal, options);

  constexpr int kProducers = 8;
  std::vector<SessionId> ids(kProducers);
  std::vector<int64_t> accepted(kProducers, 0);
  for (int p = 0; p < kProducers; ++p) {
    ids[p] = service.Begin(trips[p % trips.size()]);
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const auto& segments = trips[p % trips.size()].route.segments;
      // Feed the route over and over is not legal (transitions must chain),
      // so walk it once per session; most producers are still mid-route
      // when Shutdown lands.
      for (const auto segment : segments) {
        const PushStatus status = service.Push(ids[p], segment);
        if (status == PushStatus::kShutdown) break;
        EXPECT_EQ(status, PushStatus::kAccepted);
        if (status != PushStatus::kAccepted) break;
        ++accepted[p];
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.Shutdown();
  for (auto& producer : producers) producer.join();

  EXPECT_EQ(service.queued_points(), 0);
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(static_cast<int64_t>(service.Poll(ids[p]).size()), accepted[p])
        << "producer " << p;
  }
}

// A second, differently-fitted model for hot-swap tests.
const CausalTad* FittedCausalV2() {
  static const models::TrajectoryScorer* scorer = [] {
    auto owned = eval::MakeScorer("CausalTAD", Data(), Scale::kSmoke);
    models::FitOptions options;
    options.epochs = 3;
    options.lr = 2e-3f;
    options.seed = 99;
    owned->Fit(Data().train, options);
    return owned.release();
  }();
  return dynamic_cast<const CausalTad*>(scorer);
}

// Zero-downtime hot swap under live load: sessions begun before SwapModel
// stay pinned to the old generation and finish on the OLD weights; sessions
// begun after it score on the NEW weights — both at exact parity with
// single-model runs. Once the old sessions drain, the pump retires the old
// generation on every shard.
TEST(ServiceTest, HotSwapUnderLoadPinsSessionsToGenerations) {
  const CausalTad* old_model = FittedCausal();
  const CausalTad* new_model = FittedCausalV2();
  ASSERT_NE(old_model, nullptr);
  ASSERT_NE(new_model, nullptr);
  ASSERT_NE(old_model, new_model);
  const auto trips = ParityTrips();
  const auto old_reference = BatcherReference(old_model, trips);
  const auto new_reference = BatcherReference(new_model, trips);

  ServiceOptions options;
  options.num_shards = 2;
  options.pump = true;
  options.max_session_pending = 0;  // unbounded: no backpressure here
  options.max_shard_queued = 0;
  options.batcher.max_batch_rows = 8;
  StreamingService service(old_model, options);
  EXPECT_EQ(service.current_model(), old_model);

  // Pre-swap sessions, half fed while the old model serves.
  std::vector<SessionId> pre;
  for (const auto& trip : trips) pre.push_back(service.Begin(trip));
  for (size_t i = 0; i < trips.size(); ++i) {
    const auto& segs = trips[i].route.segments;
    for (size_t k = 0; k < segs.size() / 2; ++k) {
      ASSERT_EQ(service.Push(pre[i], segs[k]), PushStatus::kAccepted);
    }
  }

  ASSERT_TRUE(service.SwapModel(new_model));
  EXPECT_EQ(service.current_model(), new_model);
  EXPECT_EQ(service.stats().model_swaps, 1);
  EXPECT_EQ(service.stats().generations_live, 2 * 2);  // 2 gens x 2 shards

  // Post-swap sessions interleave with the pre-swap tails.
  std::vector<SessionId> post;
  for (const auto& trip : trips) post.push_back(service.Begin(trip));
  for (size_t i = 0; i < trips.size(); ++i) {
    const auto& segs = trips[i].route.segments;
    for (size_t k = segs.size() / 2; k < segs.size(); ++k) {
      ASSERT_EQ(service.Push(pre[i], segs[k]), PushStatus::kAccepted);
    }
    for (const auto segment : segs) {
      ASSERT_EQ(service.Push(post[i], segment), PushStatus::kAccepted);
    }
    service.End(pre[i]);
    service.End(post[i]);
  }

  // Drain both generations through the live pump.
  auto collect = [&](SessionId id, size_t want) {
    std::vector<double> scores;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (scores.size() < want &&
           std::chrono::steady_clock::now() < deadline) {
      const auto polled = service.Poll(id);
      scores.insert(scores.end(), polled.begin(), polled.end());
      if (polled.empty()) std::this_thread::yield();
    }
    return scores;
  };
  for (size_t i = 0; i < trips.size(); ++i) {
    const auto pre_scores = collect(pre[i], old_reference[i].size());
    ASSERT_EQ(pre_scores.size(), old_reference[i].size()) << "pre " << i;
    for (size_t k = 0; k < pre_scores.size(); ++k) {
      EXPECT_NEAR(pre_scores[k], old_reference[i][k],
                  Tol(old_reference[i][k]))
          << "pre-swap trip " << i << " k=" << k;
    }
    const auto post_scores = collect(post[i], new_reference[i].size());
    ASSERT_EQ(post_scores.size(), new_reference[i].size()) << "post " << i;
    for (size_t k = 0; k < post_scores.size(); ++k) {
      EXPECT_NEAR(post_scores[k], new_reference[i][k],
                  Tol(new_reference[i][k]))
          << "post-swap trip " << i << " k=" << k;
    }
  }

  // With every pre-swap session ended and fully polled, the pump retires
  // the drained old generation on each shard.
  const auto retire_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.stats().generations_retired < 2 &&
         std::chrono::steady_clock::now() < retire_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service.stats().generations_retired, 2);
  EXPECT_EQ(service.stats().generations_live, 2);
  service.Shutdown();
  EXPECT_FALSE(service.SwapModel(old_model)) << "swap after shutdown";
}

/// Polls `id` until a score arrives or `limit` passes.
std::vector<double> AwaitScores(StreamingService* service, SessionId id,
                                std::chrono::seconds limit) {
  std::vector<double> scores;
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (scores.empty() && std::chrono::steady_clock::now() < deadline) {
    scores = service->Poll(id);
    if (scores.empty()) std::this_thread::yield();
  }
  return scores;
}

// Lost-wake-up regression: the idle pump sleeps until a Push wakes it.
// One point at a time goes into an idle 1-shard service, and each must be
// scored with no later push to nudge the pump. The gap after each score
// varies, so pushes land while the pump is still stepping, on its way to
// sleep, and asleep. Each wait is bounded: a lost wake-up fails the test
// instead of hanging it.
TEST(ServiceTest, IdlePumpWakesForEverySinglePush) {
  const CausalTad* causal = FittedCausal();
  const auto trips = ParityTrips();
  ServiceOptions options;
  options.num_shards = 1;
  options.pump = true;
  StreamingService service(causal, options);

  constexpr int kPushes = 600;
  int pushes = 0;
  for (size_t t = 0; pushes < kPushes; ++t) {
    const traj::Trip& trip = trips[t % trips.size()];
    const SessionId id = service.Begin(trip);
    for (int64_t k = 0; k < trip.route.size() && pushes < kPushes; ++k) {
      ASSERT_EQ(service.Push(id, trip.route.segments[k]),
                PushStatus::kAccepted);
      ++pushes;
      const std::vector<double> scores =
          AwaitScores(&service, id, std::chrono::seconds(2));
      ASSERT_EQ(scores.size(), 1u)
          << "push " << pushes << " was not scored within 2 s";
      const double reference = causal->Score(trip, k + 1);
      EXPECT_NEAR(scores[0], reference, Tol(reference));
      switch (pushes % 4) {
        case 0:
          break;
        case 1:
          std::this_thread::yield();
          break;
        case 2:
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          break;
        default:
          std::this_thread::sleep_for(std::chrono::microseconds(500));
          break;
      }
    }
    service.End(id);
  }
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.points_scored, kPushes);
  EXPECT_EQ(stats.steps, kPushes);  // one point in flight at a time
}

// The same with several producers. A producer preempted between its
// enqueue and its wake check can find the pump asleep again after the pump
// already scored its point; its late wake-up must not disarm the pump for
// the other producers' points.
TEST(ServiceTest, IdlePumpWakesForConcurrentSinglePushes) {
  const CausalTad* causal = FittedCausal();
  const auto trips = ParityTrips();
  ServiceOptions options;
  options.num_shards = 1;
  options.pump = true;
  StreamingService service(causal, options);

  constexpr int kProducers = 8;
  constexpr int kPushesEach = 4000;
  std::atomic<int> lost{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      int pushes = 0;
      for (size_t t = p; pushes < kPushesEach && lost.load() == 0; ++t) {
        const traj::Trip& trip = trips[t % trips.size()];
        const SessionId id = service.Begin(trip);
        for (int64_t k = 0; k < trip.route.size() && pushes < kPushesEach;
             ++k) {
          if (service.Push(id, trip.route.segments[k]) !=
              PushStatus::kAccepted) {
            lost.fetch_add(1);
            break;
          }
          ++pushes;
          if (AwaitScores(&service, id, std::chrono::seconds(2)).size() !=
              1u) {
            lost.fetch_add(1);
            break;
          }
        }
        service.End(id);
      }
    });
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(lost.load(), 0) << "a pushed point was not scored within 2 s";
  EXPECT_EQ(service.stats().points_scored, kProducers * kPushesEach);
}


// Shutdown of an idle pumped service: a single-generation pump sleeps with
// no timeout, so Shutdown's wake-up is its only way out of the wait.
TEST(ServiceTest, ShutdownOfIdlePumpedServiceReturnsPromptly) {
  const CausalTad* causal = FittedCausal();
  const auto trips = ParityTrips();
  const traj::Trip& trip = trips[0];
  ServiceOptions options;
  options.num_shards = 4;
  options.pump = true;
  auto service = std::make_unique<StreamingService>(causal, options);
  const SessionId id = service->Begin(trip);
  ASSERT_EQ(service->Push(id, trip.route.segments[0]), PushStatus::kAccepted);
  ASSERT_EQ(AwaitScores(service.get(), id, std::chrono::seconds(2)).size(),
            1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // pumps idle

  // The closer owns what it touches, so a stuck one can be left behind.
  auto done = std::make_shared<std::atomic<bool>>(false);
  std::thread closer([raw = service.get(), done] {
    raw->Shutdown();
    done->store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!done->load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!done->load()) {
    // A pump never woke: leak the service and the stuck closer rather than
    // hang the binary on their destructors.
    closer.detach();
    (void)service.release();
    FAIL() << "Shutdown of an idle pumped service did not return in 2 s";
  }
  closer.join();
  EXPECT_EQ(service->Push(id, trip.route.segments[1]), PushStatus::kShutdown);
}

}  // namespace
}  // namespace causaltad
