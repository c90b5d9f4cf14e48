#include "serve/service.h"

#include <iterator>
#include <utility>

#include "util/logging.h"

namespace causaltad {
namespace serve {
namespace {

/// splitmix64 — cheap stateless mix so consecutive session counters spread
/// uniformly over the shards.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

StreamingService::StreamingService(const core::CausalTad* model,
                                   ServiceOptions options)
    : StreamingService(model, core::ScoreVariant::kFull, model->lambda(),
                       std::move(options)) {
  lambda_from_model_ = true;
}

StreamingService::StreamingService(const core::CausalTad* model,
                                   core::ScoreVariant variant, double lambda,
                                   ServiceOptions options)
    : options_(std::move(options)),
      registry_(options_.registry ? options_.registry
                                  : obs::Registry::Default()),
      variant_(variant),
      lambda_(lambda),
      start_(std::chrono::steady_clock::now()) {
  CAUSALTAD_CHECK_GT(options_.num_shards, 0);
  sessions_begun_.Bind(registry_, "service_sessions_begun_total");
  points_accepted_.Bind(registry_, "service_points_accepted_total");
  rejected_session_full_.Bind(registry_,
                              "service_rejected_session_full_total");
  rejected_shard_full_.Bind(registry_, "service_rejected_shard_full_total");
  model_swaps_.Bind(registry_, "service_model_swaps_total");
  generations_retired_.Bind(registry_, "service_generations_retired_total");
  model_.store(model, std::memory_order_relaxed);
  shards_.reserve(options_.num_shards);
  for (int i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->queue_wait = registry_->GetHistogram(
        "service_queue_wait_ms", {{"shard", std::to_string(i)}});
    shard->stats_base = shard->queue_wait->raw()->TakeSnapshot();
    shard->gens.push_back(MakeBatcher(model, shard.get()));
    shards_.push_back(std::move(shard));
  }
  if (options_.pump) {
    for (auto& shard : shards_) {
      shard->pump = std::thread([this, s = shard.get()] { PumpLoop(s); });
    }
  }
}

StreamingService::~StreamingService() { Shutdown(); }

std::unique_ptr<StreamingBatcher> StreamingService::MakeBatcher(
    const core::CausalTad* model, Shard* shard) const {
  StreamingOptions batcher_options = options_.batcher;
  batcher_options.queue_wait = shard->queue_wait->raw();
  batcher_options.tracer = options_.tracer;
  batcher_options.trace_where = "shard=" + std::to_string(shard->index);
  const double lambda = lambda_from_model_ ? model->lambda() : lambda_;
  return std::make_unique<StreamingBatcher>(model, variant_, lambda,
                                            batcher_options);
}

void StreamingService::PumpLoop(Shard* shard) {
  std::vector<StreamingBatcher*> gens;
  // True when the pump has something to do: a queued point, a generation
  // added or retired since `gens` was read, or Shutdown.
  auto has_work = [this, shard, &gens] {
    if (stop_.load(std::memory_order_acquire)) return true;
    std::shared_lock<std::shared_mutex> lock(shard->gens_mu);
    if (shard->gens.size() != gens.size()) return true;
    for (const auto& g : shard->gens) {
      if (g->queued_points() > 0) return true;
    }
    return false;
  };
  while (!stop_.load(std::memory_order_acquire)) {
    gens.clear();
    {
      std::shared_lock<std::shared_mutex> lock(shard->gens_mu);
      for (const auto& g : shard->gens) gens.push_back(g.get());
    }
    // Work-conserving: step whenever anything is queued, so the batch is
    // whatever arrived during the previous step.
    int64_t scored = 0;
    for (StreamingBatcher* g : gens) scored += g->Step();
    if (gens.size() > 1) MaybeRetire(shard);
    if (scored > 0) continue;
    std::unique_lock<std::mutex> lock(shard->mu);
    while (true) {
      // Re-armed before every predicate read: a Push that checks the flag
      // late, after the pump already scored its point, clears it and wakes
      // the pump for nothing, and the pump must never sleep with it clear.
      shard->pump_asleep.store(true);
      if (has_work()) break;
      if (gens.size() == 1) {
        shard->cv.wait(lock);
      } else if (shard->cv.wait_for(lock, std::chrono::milliseconds(2)) ==
                 std::cv_status::timeout) {
        // An old generation drains by Poll/End, which do not wake the
        // pump: re-check retirement every few ms until it is gone.
        break;
      }
    }
    shard->pump_asleep.store(false);
  }
}

void StreamingService::WakePump(Shard* shard) {
  // The load keeps a busy pump's pushes free of RMW and futex traffic; the
  // exchange lets one push of a burst pay for the wake-up.
  if (!shard->pump_asleep.load() || !shard->pump_asleep.exchange(false)) {
    return;
  }
  std::lock_guard<std::mutex> lock(shard->mu);
  shard->cv.notify_one();
}

StreamingService::Shard* StreamingService::ShardOf(SessionId id,
                                                   SessionId* inner) {
  CAUSALTAD_CHECK_GE(id, 0);
  const int64_t n = static_cast<int64_t>(shards_.size());
  *inner = id / n;
  return shards_[id % n].get();
}

SessionId StreamingService::BeginSession(roadnet::SegmentId source,
                                         roadnet::SegmentId destination,
                                         int time_slot) {
  return BeginSessionAt(source, destination, time_slot, /*emit_skip=*/0);
}

SessionId StreamingService::BeginSessionAt(roadnet::SegmentId source,
                                           roadnet::SegmentId destination,
                                           int time_slot, int64_t emit_skip) {
  const uint64_t seq = next_session_.fetch_add(1, std::memory_order_relaxed);
  const int64_t n = static_cast<int64_t>(shards_.size());
  const int64_t shard_index = static_cast<int64_t>(Mix(seq) % shards_.size());
  Shard* shard = shards_[shard_index].get();
  SessionId inner = -1;
  {
    // Exclusive: binds the session to the CURRENT generation and claims a
    // shard-unique inner id. A SwapModel cannot interleave, so a session
    // never splits across models.
    std::unique_lock<std::shared_mutex> lock(shard->gens_mu);
    StreamingBatcher* batcher = shard->gens.back().get();
    const SessionId batcher_id =
        batcher->BeginSessionAt(source, destination, time_slot, emit_skip);
    inner = shard->next_inner++;
    shard->route.emplace(inner, Route{batcher, batcher_id});
  }
  sessions_begun_.Inc();
  // Bijective (inner, shard) -> service id; decoding needs no lock or map.
  return inner * n + shard_index;
}

SessionId StreamingService::Begin(const traj::Trip& trip) {
  CAUSALTAD_CHECK(!trip.route.empty());
  return BeginSession(trip.route.segments.front(),
                      trip.route.segments.back(), trip.time_slot);
}

PushStatus StreamingService::Push(SessionId id, roadnet::SegmentId segment) {
  return Push(id, segment, /*trace_id=*/0);
}

PushStatus StreamingService::Push(SessionId id, roadnet::SegmentId segment,
                                  uint64_t trace_id) {
  SessionId inner = 0;
  Shard* shard = ShardOf(id, &inner);
  // The shared lock pins the pre-shutdown world: Shutdown() cannot proceed
  // to join-and-flush until this enqueue has landed (so it gets scored), and
  // once Shutdown() holds the lock exclusively every later Push sees
  // accepting_ == false.
  std::shared_lock<std::shared_mutex> accepting_lock(accepting_mu_);
  if (!accepting_) return PushStatus::kShutdown;
  PushStatus status = PushStatus::kShutdown;
  {
    std::shared_lock<std::shared_mutex> lock(shard->gens_mu);
    auto it = shard->route.find(inner);
    CAUSALTAD_CHECK(it != shard->route.end()) << "unknown session " << id;
    status = it->second.batcher->TryPush(it->second.id, segment,
                                         options_.max_session_pending,
                                         options_.max_shard_queued, trace_id);
  }
  switch (status) {
    case PushStatus::kAccepted:
      points_accepted_.Inc();
      // After gens_mu is released: the pump's wait predicate takes it.
      WakePump(shard);
      break;
    case PushStatus::kSessionFull:
      rejected_session_full_.Inc();
      break;
    case PushStatus::kShardFull:
      rejected_shard_full_.Inc();
      break;
    case PushStatus::kShutdown:
      break;  // unreachable: the batcher has no lifecycle
  }
  return status;
}

void StreamingService::End(SessionId id) {
  SessionId inner = 0;
  Shard* shard = ShardOf(id, &inner);
  std::shared_lock<std::shared_mutex> lock(shard->gens_mu);
  auto it = shard->route.find(inner);
  // Ending an already-forgotten session is a no-op (mirrors Poll).
  if (it == shard->route.end()) return;
  it->second.batcher->End(it->second.id);
}

std::vector<double> StreamingService::Poll(SessionId id) {
  SessionId inner = 0;
  Shard* shard = ShardOf(id, &inner);
  bool forgotten = false;
  std::vector<double> scores;
  StreamingBatcher* batcher = nullptr;
  {
    std::shared_lock<std::shared_mutex> lock(shard->gens_mu);
    auto it = shard->route.find(inner);
    if (it == shard->route.end()) return {};
    batcher = it->second.batcher;
    scores = batcher->Poll(it->second.id, &forgotten);
  }
  if (forgotten) {
    // The batcher no longer tracks the session; drop our route entry so a
    // drained old generation can retire. Inner ids are never reused, so
    // re-finding after the lock drop cannot alias a different session.
    std::unique_lock<std::shared_mutex> lock(shard->gens_mu);
    auto it = shard->route.find(inner);
    if (it != shard->route.end() && it->second.batcher == batcher) {
      shard->route.erase(it);
    }
  }
  return scores;
}

int64_t StreamingService::StepAll() {
  int64_t points = 0;
  for (auto& shard : shards_) {
    std::vector<StreamingBatcher*> gens;
    {
      std::shared_lock<std::shared_mutex> lock(shard->gens_mu);
      for (const auto& g : shard->gens) gens.push_back(g.get());
    }
    for (StreamingBatcher* g : gens) points += g->Step();
    if (gens.size() > 1) MaybeRetire(shard.get());
  }
  return points;
}

void StreamingService::Flush() {
  for (auto& shard : shards_) {
    std::vector<StreamingBatcher*> gens;
    {
      std::shared_lock<std::shared_mutex> lock(shard->gens_mu);
      for (const auto& g : shard->gens) gens.push_back(g.get());
    }
    for (StreamingBatcher* g : gens) g->Flush();
  }
}

bool StreamingService::SwapModel(const core::CausalTad* model) {
  CAUSALTAD_CHECK(model != nullptr);
  std::lock_guard<std::mutex> swap_lock(swap_mu_);
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) return false;
  }
  for (auto& shard : shards_) {
    auto batcher = MakeBatcher(model, shard.get());
    {
      std::unique_lock<std::shared_mutex> lock(shard->gens_mu);
      shard->gens.push_back(std::move(batcher));
    }
    // An idle pump must see the old generation to retire it once drained.
    WakePump(shard.get());
  }
  model_.store(model, std::memory_order_release);
  model_swaps_.Inc();
  return true;
}

const core::CausalTad* StreamingService::current_model() const {
  return model_.load(std::memory_order_acquire);
}

void StreamingService::MaybeRetire(Shard* shard) {
  // Cheap shared-lock probe first: retirement is rare (only after a swap),
  // Push/Poll traffic should not stall behind an exclusive lock each pass.
  bool candidate = false;
  {
    std::shared_lock<std::shared_mutex> lock(shard->gens_mu);
    for (size_t i = 0; i + 1 < shard->gens.size(); ++i) {
      if (shard->gens[i]->tracked_sessions() == 0 &&
          shard->gens[i]->queued_points() == 0) {
        candidate = true;
        break;
      }
    }
  }
  if (!candidate) return;
  std::unique_lock<std::shared_mutex> lock(shard->gens_mu);
  for (size_t i = 0; i + 1 < shard->gens.size();) {
    StreamingBatcher* g = shard->gens[i].get();
    if (g->tracked_sessions() != 0 || g->queued_points() != 0) {
      ++i;
      continue;
    }
    // Route entries can outlive the batcher's own bookkeeping (End with
    // everything already polled forgets server-side without a final Poll);
    // sweep them so the map does not hold dangling batcher pointers.
    for (auto it = shard->route.begin(); it != shard->route.end();) {
      it = it->second.batcher == g ? shard->route.erase(it) : std::next(it);
    }
    shard->gens.erase(shard->gens.begin() + static_cast<int64_t>(i));
    generations_retired_.Inc();
  }
}

void StreamingService::Shutdown() {
  // Held for the whole body: a concurrent Shutdown must BLOCK until the
  // first caller has joined the pumps and flushed, not return early into
  // a still-draining (or mid-destruction) service.
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (shut_down_) return;
  shut_down_ = true;
  {
    // Close admission FIRST, before the pumps are joined and the final
    // flush runs: any Push already past its accepting_ check finishes its
    // enqueue before this exclusive lock is granted (so the flush below
    // scores it), and every Push after it returns kShutdown. Without the
    // barrier, a push landing between the pump join and the flush — or
    // after the flush — would be accepted and never scored.
    std::unique_lock<std::shared_mutex> accepting_lock(accepting_mu_);
    accepting_ = false;
  }
  stop_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    {
      // Under the shard mutex, or the notify can land in the window
      // between a pump's predicate check and its wait and be lost,
      // leaving the pump asleep and the join hung.
      std::lock_guard<std::mutex> shard_lock(shard->mu);
      shard->cv.notify_all();
    }
    if (shard->pump.joinable()) shard->pump.join();
  }
  // Every point accepted before Shutdown gets its score.
  Flush();
  stop_time_ = std::chrono::steady_clock::now();
}

ServiceStats StreamingService::stats() const {
  ServiceStats stats;
  stats.sessions_begun = sessions_begun_.value();
  stats.points_accepted = points_accepted_.value();
  stats.rejected_session_full =
      rejected_session_full_.value();
  stats.rejected_shard_full =
      rejected_shard_full_.value();
  stats.model_swaps = model_swaps_.value();
  stats.generations_retired =
      generations_retired_.value();
  std::vector<const util::LatencyHistogram*> hists;
  std::vector<util::LatencyHistogram::Snapshot> bases;
  hists.reserve(shards_.size());
  bases.reserve(shards_.size());
  for (const auto& shard : shards_) {
    hists.push_back(shard->queue_wait->raw());
    bases.push_back(shard->stats_base);
    std::shared_lock<std::shared_mutex> lock(shard->gens_mu);
    stats.generations_live += static_cast<int64_t>(shard->gens.size());
    for (const auto& g : shard->gens) {
      const StreamingBatcher::Counters counters = g->counters();
      stats.steps += counters.steps;
      stats.points_scored += counters.points;
    }
  }
  if (stats.steps > 0) {
    stats.step_occupancy =
        static_cast<double>(stats.points_scored) /
        static_cast<double>(stats.steps * options_.batcher.max_batch_rows);
  }
  auto end = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (stop_time_ != std::chrono::steady_clock::time_point{}) {
      end = stop_time_;
    }
  }
  const double seconds =
      std::chrono::duration<double>(end - start_).count();
  if (seconds > 0.0) stats.points_per_sec = stats.points_scored / seconds;
  const int n = static_cast<int>(hists.size());
  stats.queue_wait_p50_ms = util::LatencyHistogram::MergedPercentileSince(
      hists.data(), bases.data(), n, 50.0);
  stats.queue_wait_p95_ms = util::LatencyHistogram::MergedPercentileSince(
      hists.data(), bases.data(), n, 95.0);
  stats.queue_wait_p99_ms = util::LatencyHistogram::MergedPercentileSince(
      hists.data(), bases.data(), n, 99.0);
  return stats;
}

int64_t StreamingService::queued_points() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->gens_mu);
    for (const auto& g : shard->gens) total += g->queued_points();
  }
  return total;
}

int64_t StreamingService::tracked_sessions() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock<std::shared_mutex> lock(shard->gens_mu);
    for (const auto& g : shard->gens) total += g->tracked_sessions();
  }
  return total;
}

}  // namespace serve
}  // namespace causaltad
