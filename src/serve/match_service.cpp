#include "serve/match_service.hpp"

#include <algorithm>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "support/check.hpp"

namespace apm {
namespace {

// Field-wise accumulation of queue-stat deltas across lanes (mean_batch is
// recomputed by the caller from the summed counters).
void accumulate(BatchQueueStats& into, const BatchQueueStats& d) {
  into.submitted += d.submitted;
  into.batches += d.batches;
  into.full_batches += d.full_batches;
  into.threshold_dispatches += d.threshold_dispatches;
  into.stale_flushes += d.stale_flushes;
  into.manual_flushes += d.manual_flushes;
  into.max_batch = std::max(into.max_batch, d.max_batch);
  into.modelled_backend_us += d.modelled_backend_us;
  if (into.fill_histogram.size() < d.fill_histogram.size()) {
    into.fill_histogram.resize(d.fill_histogram.size(), 0);
  }
  for (std::size_t i = 0; i < d.fill_histogram.size(); ++i) {
    into.fill_histogram[i] += d.fill_histogram[i];
  }
  if (into.tag_slots.size() < d.tag_slots.size()) {
    into.tag_slots.resize(d.tag_slots.size(), 0);
  }
  for (std::size_t i = 0; i < d.tag_slots.size(); ++i) {
    into.tag_slots[i] += d.tag_slots[i];
  }
  into.untagged_slots += d.untagged_slots;
  into.cache_hits += d.cache_hits;
  into.coalesced += d.coalesced;
}

void accumulate(CacheStats& into, const CacheStats& c) {
  into.lookups += c.lookups;
  into.hits += c.hits;
  into.misses += c.misses;
  into.inserts += c.inserts;
  into.evictions += c.evictions;
  into.entries += c.entries;
  into.capacity += c.capacity;
}

}  // namespace

MatchService::MatchService(ServiceConfig cfg, EvaluatorPool& pool,
                           std::vector<ServiceWorkload> workloads)
    : cfg_(std::move(cfg)), pool_(pool) {
  APM_CHECK(cfg_.workers >= 1);
  APM_CHECK_MSG(!workloads.empty(), "MatchService: no workloads declared");
  for (ServiceWorkload& spec : workloads) {
    APM_CHECK_MSG(spec.proto != nullptr,
                  "MatchService: workload needs a game prototype");
    APM_CHECK(spec.slots >= 1);
    const int model_id = pool.find(spec.model);
    APM_CHECK_MSG(model_id >= 0,
                  "MatchService: workload names an unregistered model");
    // A mis-routed workload would feed the wrong tensor shapes to the net;
    // fail at construction, not at the first submit.
    const InferenceBackend& backend = pool.backend(model_id);
    APM_CHECK_MSG(backend.action_count() == spec.proto->action_count() &&
                      backend.input_size() == spec.proto->encode_size(),
                  "MatchService: workload game and model shapes disagree");

    auto wl = std::make_unique<Workload>();
    wl->spec = std::move(spec);
    wl->model_id = model_id;
    wl->inflight =
        scheme_inflight(wl->spec.engine.scheme, wl->spec.engine.workers,
                        wl->spec.engine.batch_threshold,
                        wl->spec.engine.adaptive.gpu);
    if (std::none_of(lanes_.begin(), lanes_.end(), [&](const Lane& l) {
          return l.model_id == model_id;
        })) {
      Lane lane;
      lane.model_id = model_id;
      lane.start = pool.queue(model_id).stats();
      lane.start_request = pool.queue(model_id).request_histogram();
      lane.start_batch_wait = pool.queue(model_id).batch_wait_histogram();
      lane.start_backend = pool.queue(model_id).backend_histogram();
      lane.last_window = lane.start;
      if (pool.slo(model_id).enabled) {
        lane.slo = std::make_unique<obs::SloEvaluator>(pool.slo(model_id));
        // SLO windows start at the service era, not at queue birth.
        lane.slo_last = lane.start_request;
      }
      lanes_.push_back(std::move(lane));
    }
    total_slots_ += wl->spec.slots;
    workloads_.push_back(std::move(wl));
  }
  if (cfg_.aggregate.enabled) {
    controller_ = std::make_unique<AggregateController>(cfg_.aggregate,
                                                        pool.model_count());
  }
  slots_.reserve(static_cast<std::size_t>(total_slots_));
  int id = 0;
  for (std::size_t w = 0; w < workloads_.size(); ++w) {
    Workload& wl = *workloads_[w];
    wl.free_slots.reserve(static_cast<std::size_t>(wl.spec.slots));
    for (int i = 0; i < wl.spec.slots; ++i) {
      slots_.push_back(std::make_unique<Slot>());
      slots_.back()->id = id++;
      slots_.back()->workload = static_cast<int>(w);
      wl.free_slots.push_back(slots_.back().get());
    }
  }
}

MatchService::~MatchService() { stop(); }

bool MatchService::enqueue(int games) {
  APM_CHECK(games >= 0);
  {
    std::lock_guard lock(mutex_);
    if (stop_) return false;  // racing a shutdown: refuse, don't abort
    for (int i = 0; i < games; ++i) {
      // Deterministic round-robin assignment: the j-th enqueue(int) game
      // always lands on the same workload, independent of scheduling.
      Workload& wl =
          *workloads_[static_cast<std::size_t>(enqueue_rr_) %
                      workloads_.size()];
      ++enqueue_rr_;
      ++wl.pending;
      ++pending_games_;
    }
  }
  work_cv_.notify_all();
  return true;
}

bool MatchService::enqueue_workload(int workload, int games) {
  APM_CHECK(games >= 0);
  APM_CHECK(workload >= 0 &&
            workload < static_cast<int>(workloads_.size()));
  {
    std::lock_guard lock(mutex_);
    if (stop_) return false;
    workloads_[static_cast<std::size_t>(workload)]->pending += games;
    pending_games_ += games;
  }
  work_cv_.notify_all();
  return true;
}

void MatchService::start() {
  std::lock_guard lock(mutex_);
  APM_CHECK_MSG(!stop_, "MatchService: start() after stop()");
  if (started_) return;
  started_ = true;
  wall_timer_.reset();
  threads_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int w = 0; w < cfg_.workers; ++w) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

bool MatchService::seatable_locked() const {
  for (const std::unique_ptr<Workload>& wl : workloads_) {
    if (wl->pending > 0 && !wl->free_slots.empty()) return true;
  }
  return false;
}

void MatchService::claim_locked(Slot& slot) {
  Workload& wl = *workloads_[static_cast<std::size_t>(slot.workload)];
  slot.game_id = wl.next_game_index++;
  --wl.pending;
  --pending_games_;
  ++wl.active;
  ++active_games_;
  slot.search_seconds = 0.0;
  // Seed from the template; worker_loop refreshes this from the engine's
  // committed scheme after every move the slot plays.
  slot.live_inflight = wl.inflight;
  for (Lane& lane : lanes_) {
    if (lane.model_id == wl.model_id) {
      ++lane.live_games;
      lane.inflight_sum += slot.live_inflight;
      break;
    }
  }
  retune_locked(wl.model_id);  // a game attached: the producer pool grew
}

void MatchService::build_slot(Slot& slot) {
  // Runs outside the lock on the exclusively-owned slot; everything read
  // here (workload specs, the pool's lanes) is immutable after
  // construction.
  //
  // Per-game seeds are a pure function of (workload, per-workload game
  // index), so a game's move sequence is independent of the worker count,
  // of scheduling order, and of which of the workload's slots seated it.
  const Workload& wl = *workloads_[static_cast<std::size_t>(slot.workload)];
  EngineConfig ec = wl.spec.engine;
  ec.mcts.seed = wl.spec.engine.mcts.seed +
                 static_cast<std::uint64_t>(slot.game_id) *
                     cfg_.engine_seed_stride;
  SelfPlayConfig sp = wl.spec.self_play;
  sp.seed = wl.spec.self_play.seed +
            static_cast<std::uint64_t>(slot.game_id) * cfg_.game_seed_stride;

  SearchResources res;
  res.batch = &pool_.queue(wl.model_id);
  // Attributes lane occupancy to this slot; a tagged queue is owner-tuned,
  // so the engine never re-tunes the lane threshold on a scheme switch.
  res.batch_tag = slot.id;
  // The lane's shared transposition memory (if declared): every engine
  // this lane seats grafts from — and stores into — the same table, so
  // sibling games dedupe whole expansions, not just NN calls. An engine
  // never clears a table it was handed; the lane owner does.
  res.tt = pool_.transposition(wl.model_id);
  slot.engine = std::make_unique<SearchEngine>(ec, res);
  slot.runner = std::make_unique<EpisodeRunner>(*wl.spec.proto, sp);
}

GameRecord MatchService::retire_slot(Slot& slot, bool completed) const {
  const Workload& wl = *workloads_[static_cast<std::size_t>(slot.workload)];
  GameRecord rec;
  rec.game_id = slot.game_id;
  rec.workload = slot.workload;
  rec.game_name = wl.spec.proto->name();
  rec.model = wl.spec.model;
  rec.completed = completed;
  // A record waits in completed_ until take_completed(), often for the
  // whole run, so its vectors are sized exactly.
  rec.samples.reserve(slot.runner->sample_count());
  EpisodeStats stats = slot.runner->finish(
      [&rec](TrainSample&& s) { rec.samples.push_back(std::move(s)); });
  fold_engine_trace(stats, *slot.engine, 0);
  rec.stats = std::move(stats);
  return rec;
}

void MatchService::commit_locked(Slot& slot, GameRecord&& rec) {
  Workload& wl = *workloads_[static_cast<std::size_t>(slot.workload)];
  if (rec.completed) {
    ++games_completed_;
    ++wl.completed;
  } else {
    ++games_abandoned_;
    ++wl.abandoned;
  }
  --wl.active;
  --active_games_;
  moves_ += rec.stats.moves;
  wl.moves += rec.stats.moves;
  samples_ += rec.stats.samples;
  scheme_switches_ += rec.stats.scheme_switches;
  reused_visits_ += rec.stats.reused_visits;
  search_seconds_ += slot.search_seconds;
  for (const EngineMoveStats& m : rec.stats.per_move) {
    eval_requests_ += m.metrics.eval_requests;
    cache_hits_ += m.metrics.cache_hits;
    coalesced_evals_ += m.metrics.coalesced_evals;
    tt_grafts_ += m.metrics.tt_grafts;
  }
  completed_.push_back(std::move(rec));

  slot.engine.reset();
  slot.runner.reset();
  slot.game_id = -1;
  wl.free_slots.push_back(&slot);
  for (Lane& lane : lanes_) {
    if (lane.model_id == wl.model_id) {
      --lane.live_games;
      lane.inflight_sum -= slot.live_inflight;
      break;
    }
  }
  retune_locked(wl.model_id);  // a game retired: the producer pool shrank
}

void MatchService::retune_locked(int model_id) {
  if (controller_ == nullptr || !started_) return;
  const double now = wall_timer_.elapsed_seconds();
  for (Lane& lane : lanes_) {
    if (model_id >= 0 && lane.model_id != model_id) continue;
    AsyncBatchEvaluator& queue = pool_.queue(lane.model_id);
    const BatchQueueStats snap = queue.stats();
    const std::uint64_t window_arrivals =
        snap.submitted - lane.last_window.submitted;
    const double window_seconds = now - lane.last_window_seconds;
    // Dedupe measured at queue granularity over the whole service era: the
    // fraction of arrived demand that needed no batch slot — the
    // ProfiledCosts::cache_hit_rate analogue the arrival model scales the
    // unique pool by.
    const BatchQueueStats delta = stats_delta(snap, lane.start);
    const double demand = static_cast<double>(
        delta.submitted + delta.cache_hits + delta.coalesced);
    const double hit_rate =
        demand > 0.0
            ? static_cast<double>(delta.cache_hits + delta.coalesced) / demand
            : 0.0;
    LaneObservation obs;
    obs.live_games = lane.live_games;
    obs.inflight = lane.live_games > 0 ? lane.inflight_sum / lane.live_games
                                       : 1.0;
    obs.hit_rate = hit_rate;
    obs.tt_graft_rate =
        lane.tt_demand > 0
            ? static_cast<double>(lane.tt_grafts) /
                  static_cast<double>(lane.tt_demand)
            : 0.0;
    obs.window_slot_arrivals = window_arrivals;
    obs.window_seconds = window_seconds;
    obs.stale_flush_us = queue.stale_flush_us();
    InferenceBackend& backend = pool_.backend(lane.model_id);
    const ThresholdDecision d = controller_->observe(
        lane.model_id, now, obs,
        [&backend](int b) { return backend.model_batch_us(b); },
        queue.batch_threshold());
    if (d.changed) queue.set_batch_threshold(d.to);
    lane.last_window = snap;
    lane.last_window_seconds = now;
  }
}

void MatchService::worker_loop() {
  // Names this worker's trace track. Only when tracing is already on at
  // worker startup: a tracing-off service must not allocate ring buffers.
  if (obs::tracing_enabled()) obs::set_thread_name("svc.worker");
  // Watchdog heartbeat: one slot per worker, beaten once per committed
  // move; the cv wait below is marked idle so a drained service never
  // reads as stalled (ISSUE 10's false-positive guard).
  obs::HeartbeatLease hb("svc.worker");
  std::unique_lock lock(mutex_);
  for (;;) {
    {
      obs::IdleScope idle(hb.get());
      work_cv_.wait(lock, [&] {
        return stop_ || !ready_.empty() || seatable_locked();
      });
    }
    if (stop_) return;

    Slot* slot = nullptr;
    bool fresh = false;
    if (!ready_.empty()) {
      slot = ready_.front();
      ready_.pop_front();
    } else {
      for (const std::unique_ptr<Workload>& wl : workloads_) {
        if (wl->pending > 0 && !wl->free_slots.empty()) {
          slot = wl->free_slots.back();
          wl->free_slots.pop_back();
          break;
        }
      }
      claim_locked(*slot);
      fresh = true;
    }
    // More work may remain (another ready slot, another seatable game) —
    // hand it to a sibling before going heads-down on this move.
    if (!ready_.empty() || seatable_locked()) {
      work_cv_.notify_one();
    }
    lock.unlock();
    if (fresh) build_slot(*slot);

    // The move runs outside the lock; `slot` is exclusively ours until we
    // requeue it. Tree reuse: the played action is fed back via advance().
    // One clock pair serves the search-seconds aggregate, the per-move
    // latency histogram, and the "move" trace span (which nests the
    // engine.search span recorded inside).
    const std::uint64_t move_start = obs::now_ns();
    slot->runner->step(
        [&](const Game& env) { return slot->engine->search(env); },
        [&](int action) { slot->engine->advance(action); });
    const std::uint64_t move_end = obs::now_ns();
    hist_move_ns_.record(move_end - move_start);
    hb->beat();  // one unit of progress = one committed move
    obs::emit_span("move", "serve", move_start, move_end,
                   {{"slot", slot->id},
                    {"workload", slot->workload},
                    {"game", slot->game_id}});
    slot->search_seconds +=
        static_cast<double>(move_end - move_start) * 1e-9;

    // The just-played move's TT traffic, folded into the lane's graft rate
    // below (under the lock) so retune_locked sees a live signal.
    std::uint64_t move_grafts = 0;
    std::uint64_t move_requests = 0;
    if (!slot->engine->move_log().empty()) {
      const SearchMetrics& last = slot->engine->move_log().back().metrics;
      move_grafts = last.tt_grafts;
      move_requests = last.eval_requests;
    }

    const bool done = slot->runner->done();
    GameRecord rec;
    double live = 0.0;
    // wl is immutable after construction; read it outside the lock.
    const Workload& wl = *workloads_[static_cast<std::size_t>(slot->workload)];
    if (done) {
      // Retire outside the lock too (augmentation copies samples).
      rec = retire_slot(*slot, /*completed=*/true);
    } else {
      // The engine's AdaptiveController may just have migrated this game to
      // a different scheme; re-read the COMMITTED configuration so the
      // lane's inflight sum tracks what the game now actually keeps in
      // flight, not the template it was seated with.
      live = scheme_inflight(slot->engine->scheme(), slot->engine->workers(),
                             slot->engine->batch_threshold(),
                             wl.spec.engine.adaptive.gpu);
    }

    lock.lock();
    for (Lane& lane : lanes_) {
      if (lane.model_id == wl.model_id) {
        lane.tt_grafts += move_grafts;
        lane.tt_demand += move_grafts + move_requests;
        break;
      }
    }
    if (done) {
      commit_locked(*slot, std::move(rec));
      if (pending_games_ > 0) {
        work_cv_.notify_one();  // the freed slot is seatable
      } else if (active_games_ == 0) {
        idle_cv_.notify_all();
      }
    } else {
      for (Lane& lane : lanes_) {
        if (lane.model_id == wl.model_id) {
          lane.inflight_sum += live - slot->live_inflight;
          break;
        }
      }
      slot->live_inflight = live;
      ready_.push_back(slot);
      // Periodic cadence between attach/retire events: live lanes' arrival
      // rates drift as trees warm and dedupe rises; re-decide every M
      // committed moves.
      ++interim_moves_;
      if (controller_ != nullptr && cfg_.aggregate.retune_every_moves > 0 &&
          interim_moves_ - last_retune_moves_ >=
              cfg_.aggregate.retune_every_moves) {
        last_retune_moves_ = interim_moves_;
        retune_locked(/*model_id=*/-1);
      }
    }
  }
}

void MatchService::drain() {
  std::unique_lock lock(mutex_);
  APM_CHECK_MSG(started_ || (pending_games_ == 0 && active_games_ == 0),
                "MatchService: drain() before start()");
  idle_cv_.wait(lock, [&] {
    return stop_ || (pending_games_ == 0 && active_games_ == 0);
  });
}

void MatchService::stop() {
  std::vector<std::thread> to_join;
  {
    std::unique_lock lock(mutex_);
    if (stopping_) {
      // A racing stop() owns the teardown (threads_ was swapped out —
      // joining here would double-join); wait for it to finish instead.
      stopped_cv_.wait(lock, [&] { return stopped_; });
      return;
    }
    stopping_ = true;
    stop_ = true;
    if (started_) final_wall_seconds_ = wall_timer_.elapsed_seconds();
    to_join.swap(threads_);
  }
  work_cv_.notify_all();
  idle_cv_.notify_all();
  // Workers finish their in-flight move, then exit. A worker blocked on a
  // shared-queue future is woken by the stale-flush timer (required at
  // construction), so the join below is bounded by one move's tail.
  for (std::thread& t : to_join) t.join();

  std::lock_guard lock(mutex_);
  ready_.clear();
  for (const std::unique_ptr<Slot>& slot : slots_) {
    if (slot->game_id < 0) continue;
    // Retire the abandoned game as a completed=false record: the moves it
    // played (and its adaptation trace) stay observable, and callers can
    // filter its truncated samples by the flag.
    commit_locked(*slot, retire_slot(*slot, /*completed=*/false));
  }
  stopped_ = true;
  stopped_cv_.notify_all();
}

std::vector<GameRecord> MatchService::take_completed() {
  std::vector<GameRecord> out;
  {
    std::lock_guard lock(mutex_);
    out.swap(completed_);
  }
  std::sort(out.begin(), out.end(),
            [](const GameRecord& a, const GameRecord& b) {
              return a.workload != b.workload ? a.workload < b.workload
                                              : a.game_id < b.game_id;
            });
  return out;
}

void MatchService::invalidate_model(int model_id) {
  if (model_id < 0) {
    pool_.invalidate_all();
  } else {
    pool_.invalidate(model_id);
  }
}

std::vector<ThresholdDecision> MatchService::retune_log() const {
  std::lock_guard lock(mutex_);
  return controller_ != nullptr ? controller_->log()
                                : std::vector<ThresholdDecision>{};
}

std::uint64_t MatchService::retune_log_dropped() const {
  std::lock_guard lock(mutex_);
  return controller_ != nullptr ? controller_->log_dropped() : 0;
}

void MatchService::publish_metrics() {
  // Each publish call is one SLO evaluation window: advance every
  // SLO-bearing lane's health state over the request latency recorded
  // since the previous call (the queue histogram delta).
  {
    std::lock_guard lock(mutex_);
    for (Lane& lane : lanes_) {
      if (lane.slo == nullptr) continue;
      const obs::HistogramSnapshot cur =
          pool_.queue(lane.model_id).request_histogram();
      const obs::HistogramSnapshot window = cur.delta(lane.slo_last);
      lane.slo_last = cur;
      lane.health = lane.slo->update(window);
      lane.slo_window_p99_us = lane.slo->last_p99_us();
      lane.slo_burn = lane.slo->burn_rate();
    }
  }

  const ServiceStats s = stats();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.counter("service.moves").set(static_cast<std::uint64_t>(s.moves));
  reg.counter("service.games_completed")
      .set(static_cast<std::uint64_t>(s.games_completed));
  reg.counter("service.eval_requests").set(s.eval_requests);
  reg.counter("service.cache_hits").set(s.cache_hits);
  reg.counter("service.coalesced_evals").set(s.coalesced_evals);
  reg.counter("service.tt_grafts").set(s.tt_grafts);
  reg.counter("service.threshold_retunes")
      .set(static_cast<std::uint64_t>(s.threshold_retunes));
  reg.gauge("service.cache_hit_rate").set(s.cache_hit_rate);
  reg.gauge("service.tt_graft_rate").set(s.tt_graft_rate);
  reg.gauge("service.mean_batch_fill").set(s.mean_batch_fill);
  reg.gauge("service.moves_per_second").set(s.moves_per_second);
  reg.gauge("service.evals_per_second").set(s.evals_per_second);
  reg.set_histogram("service.move_latency_ns", s.move_latency_ns);
  reg.set_histogram("service.request_latency_ns", s.request_latency_ns);
  reg.set_histogram("service.batch_wait_ns", s.batch_wait_ns);
  reg.set_histogram("service.backend_eval_ns", s.backend_eval_ns);
  // Per-lane latency shards and SLO health: the telemetry
  // sampler reads everything — aggregate and per-lane — from the registry,
  // so publish the lane views under their lane names too. Health is a
  // gauge (0=healthy 1=warn 2=breach); the sampler's worst_health() and
  // the watchdog's breach feed key off the ".health" suffix.
  for (const ServiceLaneStats& ls : s.lanes) {
    const std::string p = "service." + ls.model + ".";
    reg.set_histogram(p + "request_latency_ns", ls.request_latency_ns);
    reg.set_histogram(p + "batch_wait_ns", ls.batch_wait_ns);
    reg.set_histogram(p + "backend_eval_ns", ls.backend_eval_ns);
    if (ls.slo_enabled) {
      reg.gauge(p + "health").set(static_cast<double>(ls.health));
      reg.gauge(p + "slo_burn").set(ls.slo_burn);
      reg.gauge(p + "slo_window_p99_us").set(ls.slo_window_p99_us);
    }
  }
  // Per-lane shared-TT telemetry (TT-bearing lanes only): the
  // table's own counters plus the service's leaf-only graft fold, keyed by
  // lane name so heterogeneous services stay disentangled.
  for (const ServiceLaneStats& ls : s.lanes) {
    if (!ls.tt_shared) continue;
    const std::string p = "service." + ls.model + ".tt.";
    reg.counter(p + "probes").set(ls.tt.probes);
    reg.counter(p + "hits").set(ls.tt.hits);
    reg.counter(p + "pending").set(ls.tt.pending);
    reg.counter(p + "stores").set(ls.tt.stores);
    reg.counter(p + "grafts").set(ls.tt_grafts);
    reg.gauge(p + "entries").set(static_cast<double>(ls.tt.entries));
    reg.gauge(p + "occupancy")
        .set(ls.tt.capacity > 0
                 ? static_cast<double>(ls.tt.entries) /
                       static_cast<double>(ls.tt.capacity)
                 : 0.0);
    reg.gauge(p + "graft_rate").set(ls.tt_graft_rate);
  }
}

ServiceStats MatchService::stats() const {
  std::lock_guard lock(mutex_);
  ServiceStats s;
  s.slots = total_slots_;
  s.workers = cfg_.workers;
  s.games_completed = games_completed_;
  s.games_abandoned = games_abandoned_;
  s.games_pending = pending_games_;
  s.games_active = active_games_;
  s.moves = moves_;
  s.samples = samples_;
  s.eval_requests = eval_requests_;
  s.cache_hits = cache_hits_;
  s.coalesced_evals = coalesced_evals_;
  if (eval_requests_ > 0) {
    s.cache_hit_rate =
        static_cast<double>(cache_hits_ + coalesced_evals_) /
        static_cast<double>(eval_requests_);
  }
  s.tt_grafts = tt_grafts_;
  if (tt_grafts_ + eval_requests_ > 0) {
    s.tt_graft_rate = static_cast<double>(tt_grafts_) /
                      static_cast<double>(tt_grafts_ + eval_requests_);
  }
  s.scheme_switches = scheme_switches_;
  s.reused_visits = reused_visits_;
  s.search_seconds = search_seconds_;
  s.wall_seconds =
      started_ && !stop_ ? wall_timer_.elapsed_seconds() : final_wall_seconds_;
  if (s.wall_seconds > 0.0) {
    s.moves_per_second = s.moves / s.wall_seconds;
    s.evals_per_second = static_cast<double>(s.eval_requests) / s.wall_seconds;
  }

  for (const Lane& lane : lanes_) {
    const AsyncBatchEvaluator& queue = pool_.queue(lane.model_id);
    const BatchQueueStats delta = stats_delta(queue.stats(), lane.start);
    accumulate(s.batch, delta);
    // Era-window latency shards: the queue's lifetime histograms minus the
    // construction baselines, merged across lanes (and kept per lane).
    const obs::HistogramSnapshot req_delta =
        queue.request_histogram().delta(lane.start_request);
    const obs::HistogramSnapshot wait_delta =
        queue.batch_wait_histogram().delta(lane.start_batch_wait);
    const obs::HistogramSnapshot backend_delta =
        queue.backend_histogram().delta(lane.start_backend);
    s.request_latency_ns.merge(req_delta);
    s.batch_wait_ns.merge(wait_delta);
    s.backend_eval_ns.merge(backend_delta);
    const EvalCache* cache = pool_.cache(lane.model_id);
    if (cache != nullptr) accumulate(s.cache, cache->stats());
    ServiceLaneStats ls;
    ls.model_id = lane.model_id;
    ls.model = pool_.name(lane.model_id);
    ls.precision = pool_.precision(lane.model_id);
    ls.live_games = lane.live_games;
    ls.live_inflight = lane.inflight_sum;
    ls.threshold = queue.batch_threshold();
    ls.retunes =
        controller_ != nullptr ? controller_->retunes(lane.model_id) : 0;
    ls.tt_graft_rate =
        lane.tt_demand > 0
            ? static_cast<double>(lane.tt_grafts) /
                  static_cast<double>(lane.tt_demand)
            : 0.0;
    ls.tt_grafts = lane.tt_grafts;
    ls.tt_demand = lane.tt_demand;
    if (const TranspositionTable* tt = pool_.transposition(lane.model_id)) {
      ls.tt_shared = true;
      ls.tt = tt->stats();
    }
    ls.batch = delta;
    if (cache != nullptr) ls.cache = cache->stats();
    ls.request_latency_ns = req_delta;
    ls.batch_wait_ns = wait_delta;
    ls.backend_eval_ns = backend_delta;
    if (lane.slo != nullptr) {
      ls.slo_enabled = true;
      ls.health = lane.health;
      ls.slo_window_p99_us = lane.slo_window_p99_us;
      ls.slo_burn = lane.slo_burn;
    }
    s.lanes.push_back(std::move(ls));
  }
  s.batch.mean_batch =
      s.batch.batches > 0
          ? static_cast<double>(s.batch.submitted) /
                static_cast<double>(s.batch.batches)
          : 0.0;
  s.mean_batch_fill = s.batch.mean_batch;
  s.threshold_retunes =
      controller_ != nullptr ? controller_->total_retunes() : 0;

  s.move_latency_ns = hist_move_ns_.snapshot();
  s.move_latency_p50_ms = s.move_latency_ns.quantile(0.5) * 1e-6;
  s.move_latency_p99_ms = s.move_latency_ns.quantile(0.99) * 1e-6;
  s.request_latency_p50_us = s.request_latency_ns.quantile(0.5) * 1e-3;
  s.request_latency_p99_us = s.request_latency_ns.quantile(0.99) * 1e-3;

  for (std::size_t w = 0; w < workloads_.size(); ++w) {
    const Workload& wl = *workloads_[w];
    WorkloadStats ws;
    ws.workload = static_cast<int>(w);
    ws.game_name = wl.spec.proto->name();
    ws.model = wl.spec.model;
    ws.slots = wl.spec.slots;
    ws.games_completed = wl.completed;
    ws.games_abandoned = wl.abandoned;
    ws.games_pending = wl.pending;
    ws.games_active = wl.active;
    ws.moves = wl.moves;
    s.workloads.push_back(std::move(ws));
  }
  return s;
}

}  // namespace apm
