// End-to-end benchmark of the serving stack on real nets.
//
// Positions go in and moves come out through the whole stack:
//   MatchService -> EvaluatorPool -> AsyncBatchEvaluator (+ EvalCache, lane
//   TT) -> CpuBackend -> NetEvaluator -> PolicyValueNet
// Each run plays one workload in a closed loop: the K game slots are the
// clients, multiplexed over at most nproc service workers; a game's next
// move is requested only after its previous move completed. The run plays
// a short warm-up and then measures the moves that finish in the next
// --seconds seconds, or plays a fixed --games per lane (start() until
// drain() returns, under a deadline).
//
//   e2e_bench --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//             [--games N] [--out DIR] [--commit SHA] [--dirty 0|1]
//   e2e_bench --list
//   e2e_bench --summarize RESULT.json... [--summary-out FILE]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// twice on fresh stacks (untraced, then traced), writes Chrome traces, runs
// the per-layer profile pass and reports the per-layer metrics. Every
// result goes to DIR as JSON; the last line of standard output is the
// {"correct", "attempted", "failed", "metrics"} summary. Exit status is 0
// only when every correctness check passed.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "catalog.hpp"
#include "eval/net_evaluator.hpp"
#include "games/connect4.hpp"
#include "games/gomoku.hpp"
#include "games/othello.hpp"
#include "nn_profile.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "serve/match_service.hpp"
#include "stats.hpp"

namespace e2e {
namespace {

// ---------------------------------------------------------------------------
// Workloads. Only the settings that define a workload are set here; every
// serving and tuning knob (streams, thresholds, stale flush, GEMM threads,
// cache and TT sizes, the aggregate controller) stays at its library
// default, so a later change to a default is measured by this benchmark.

enum class GameKind { kGomoku9, kConnect4, kOthello6 };
enum class NetShape { kPaper, kTiny };

struct LaneSpec {
  const char* model;  // lane name in the EvaluatorPool
  GameKind game;
  NetShape net;
  apm::Precision precision;
  int slots;  // K concurrent games on this lane
  int playouts;
};

struct WorkloadSpec {
  const char* name;
  const char* why;
  int workers;  // service workers (capped at nproc)
  apm::Scheme scheme;
  int scheme_workers;  // N of the starting scheme (capped at nproc)
  bool adapt;
  bool root_noise;  // self-play exploration noise
  std::vector<LaneSpec> lanes;

  // Serial engines without adaptation: each game is a pure function of the
  // seed, whatever the batch composition or worker interleaving.
  bool deterministic() const {
    return scheme == apm::Scheme::kSerial && !adapt;
  }
};

const std::vector<WorkloadSpec>& workloads() {
  using apm::Precision;
  using apm::Scheme;
  static const std::vector<WorkloadSpec> specs = {
      {"selfplay_gomoku9",
       "inference-bound self-play throughput: NN, GEMM and backend changes "
       "show here; search and TT changes should not",
       4, Scheme::kSerial, 1, false, true,
       {{"gomoku9", GameKind::kGomoku9, NetShape::kPaper, Precision::kFp32,
         8, 128}}},
      {"analysis_connect4",
       "single-game analysis with adaptive in-tree parallelism: search, TT, "
       "queue and controller changes show here",
       1, Scheme::kSharedTree, 4, true, false,
       {{"connect4", GameKind::kConnect4, NetShape::kTiny, Precision::kFp32,
         1, 1600}}},
      {"zoo_mixed",
       "three lanes on one service: routing, per-lane retunes, game tails, "
       "the int8 kernel and cache/TT reuse",
       4, Scheme::kSerial, 1, false, true,
       {{"gomoku9-int8", GameKind::kGomoku9, NetShape::kPaper,
         Precision::kInt8, 2, 128},
        {"connect4", GameKind::kConnect4, NetShape::kTiny, Precision::kFp32,
         1, 400},
        {"othello6", GameKind::kOthello6, NetShape::kTiny, Precision::kFp32,
         1, 400}}},
  };
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::unique_ptr<apm::Game> make_game(GameKind kind) {
  switch (kind) {
    case GameKind::kGomoku9: return std::make_unique<apm::Gomoku>(9, 5);
    case GameKind::kConnect4: return std::make_unique<apm::Connect4>();
    case GameKind::kOthello6: return std::make_unique<apm::Othello>(6);
  }
  return nullptr;
}

// The paper trunk (32/64/128) or the tiny test net, shaped for `game`.
apm::NetConfig net_config(const apm::Game& game, NetShape shape) {
  apm::NetConfig cfg =
      shape == NetShape::kPaper ? apm::NetConfig{}
                                : apm::NetConfig::tiny(game.height());
  cfg.in_channels = game.encode_channels();
  cfg.height = game.height();
  cfg.width = game.width();
  if (game.action_count() != game.height() * game.width()) {
    cfg.action_override = game.action_count();
  }
  return cfg;
}

// Every input derives from --seed: the self-play and engine seeds and the
// gate positions, each per lane. The nets are part of the workload, not of
// its inputs: their weights derive from kModelSeed, so runs with different
// seeds serve the same models. (With per-seed random nets, six seeds of
// selfplay_gomoku9 spanned 14-27 moves/s: a net's sharpness sets how much
// of each move's budget tree reuse covers.)
enum class SeedRole : std::uint64_t { kNet = 1, kSelfPlay, kEngine, kGate };
constexpr std::uint64_t kModelSeed = 2023;

std::uint64_t derive_seed(std::uint64_t seed, std::size_t lane,
                          SeedRole role) {
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ULL +
                    (static_cast<std::uint64_t>(lane) << 8) +
                    static_cast<std::uint64_t>(role);
  return apm::splitmix64(s);
}

int host_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

// ---------------------------------------------------------------------------
// The stack under test.

struct Lane {
  const LaneSpec* spec = nullptr;
  std::shared_ptr<const apm::Game> proto;
  std::unique_ptr<apm::PolicyValueNet> net;
  std::unique_ptr<apm::QuantizedPolicyValueNet> qnet;  // int8 lanes
  std::unique_ptr<apm::NetEvaluator> eval;
  std::unique_ptr<TimedEvaluator> timed_eval;
  std::unique_ptr<apm::CpuBackend> cpu;
  std::unique_ptr<TimedBackend> backend;
  int model_id = -1;
};

// Declaration order is the destruction contract: the service (engines,
// workers) goes before the pool (queues, caches, TTs), the pool before the
// lanes whose backends and nets it calls.
struct Stack {
  const WorkloadSpec* spec = nullptr;
  std::vector<std::unique_ptr<Lane>> lanes;
  std::unique_ptr<apm::EvaluatorPool> pool;
  apm::ServiceConfig service_cfg;
  std::vector<apm::ServiceWorkload> service_workloads;
  std::unique_ptr<apm::MatchService> service;
};

apm::EngineConfig engine_config(const WorkloadSpec& spec, const LaneSpec& ls,
                                std::uint64_t seed, std::size_t lane) {
  const int nproc = host_threads();
  apm::EngineConfig ec;
  ec.mcts.num_playouts = ls.playouts;
  ec.mcts.root_noise = spec.root_noise;
  ec.mcts.seed = derive_seed(seed, lane, SeedRole::kEngine);
  ec.scheme = spec.scheme;
  ec.workers = std::min(spec.scheme_workers, nproc);
  ec.adapt = spec.adapt;
  if (spec.adapt) {
    // Size the controller's hardware model to this host, as a deployment
    // would: the default HardwareSpec describes the paper's 64-thread
    // testbed and lets the controller pick N=64 on a 4-core machine.
    ec.hw.cpu_threads = nproc;
    ec.adaptive.worker_candidates.clear();
    for (int n = 1; n <= nproc; n *= 2) {
      ec.adaptive.worker_candidates.push_back(n);
    }
  }
  return ec;
}

std::unique_ptr<Stack> build_lanes(const WorkloadSpec& spec, SpanLog& log) {
  auto st = std::make_unique<Stack>();
  st->spec = &spec;
  st->pool = std::make_unique<apm::EvaluatorPool>();
  for (std::size_t i = 0; i < spec.lanes.size(); ++i) {
    const LaneSpec& ls = spec.lanes[i];
    auto lane = std::make_unique<Lane>();
    lane->spec = &ls;
    lane->proto = make_game(ls.game);
    lane->net = std::make_unique<apm::PolicyValueNet>(
        net_config(*lane->proto, ls.net),
        derive_seed(kModelSeed, i, SeedRole::kNet));
    if (ls.precision == apm::Precision::kInt8) {
      lane->qnet = std::make_unique<apm::QuantizedPolicyValueNet>(*lane->net);
      lane->eval = std::make_unique<apm::NetEvaluator>(*lane->qnet);
    } else {
      lane->eval = std::make_unique<apm::NetEvaluator>(*lane->net);
    }
    const char* label = apm::obs::intern_label(ls.model);
    lane->timed_eval =
        std::make_unique<TimedEvaluator>(*lane->eval, log, label);
    lane->cpu = std::make_unique<apm::CpuBackend>(*lane->timed_eval);
    lane->backend = std::make_unique<TimedBackend>(*lane->cpu, log, label);

    apm::ModelSpec ms;
    ms.name = ls.model;
    ms.backend = lane->backend.get();
    ms.precision = ls.precision;
    ms.tt.enabled = true;
    lane->model_id = st->pool->add_model(ms);
    st->lanes.push_back(std::move(lane));
  }
  return st;
}

// `threshold` unhashed requests per lane: warms the stream thread's net
// workspace without putting anything into the cache.
void warm_lanes(Stack& st) {
  for (const auto& lane : st.lanes) {
    apm::AsyncBatchEvaluator& queue = st.pool->queue(lane->model_id);
    std::vector<float> input(lane->proto->encode_size());
    lane->proto->encode(input.data());
    std::vector<std::future<apm::EvalOutput>> pending;
    for (int i = 0; i < queue.batch_threshold(); ++i) {
      pending.push_back(queue.submit_future(input.data()));
    }
    for (auto& f : pending) f.get();
  }
}

void make_service(Stack& st, std::uint64_t seed) {
  const WorkloadSpec& spec = *st.spec;
  st.service_cfg.workers = std::min(spec.workers, host_threads());
  st.service_workloads.clear();
  for (std::size_t i = 0; i < st.lanes.size(); ++i) {
    const Lane& lane = *st.lanes[i];
    apm::ServiceWorkload w;
    w.proto = lane.proto;
    w.model = lane.spec->model;
    w.slots = lane.spec->slots;
    w.engine = engine_config(spec, *lane.spec, seed, i);
    w.self_play.seed = derive_seed(seed, i, SeedRole::kSelfPlay);
    st.service_workloads.push_back(w);
  }
  st.service = std::make_unique<apm::MatchService>(st.service_cfg, *st.pool,
                                                   st.service_workloads);
}

// ---------------------------------------------------------------------------
// Correctness gates.

constexpr int kGatePositions = 32;

// Positions reached by short random walks from the start, never terminal.
std::vector<float> gate_positions(const apm::Game& proto, std::uint64_t seed) {
  apm::Rng rng(seed);
  std::vector<float> out;
  std::vector<int> legal;
  for (int p = 0; p < kGatePositions; ++p) {
    std::unique_ptr<apm::Game> g = proto.clone();
    const auto plies = static_cast<int>(rng.below(24));
    for (int k = 0; k < plies; ++k) {
      g->legal_actions(legal);
      std::unique_ptr<apm::Game> next = g->clone();
      next->apply(legal[rng.below(legal.size())]);
      if (next->is_terminal()) break;
      g = std::move(next);
    }
    const std::size_t at = out.size();
    out.resize(at + g->encode_size());
    g->encode(out.data() + at);
  }
  return out;
}

// Every lane's output on the gate positions, served through its queue in
// whatever batches form, must be bitwise equal to a direct batch-1 predict
// on the lane's net (fp32) or its int8 snapshot.
void gate_lanes(Stack& st, std::uint64_t seed,
                std::vector<std::string>& errors) {
  for (std::size_t i = 0; i < st.lanes.size(); ++i) {
    const Lane& lane = *st.lanes[i];
    const std::size_t in_size = lane.proto->encode_size();
    const std::vector<float> pos =
        gate_positions(*lane.proto, derive_seed(seed, i, SeedRole::kGate));
    apm::AsyncBatchEvaluator& queue = st.pool->queue(lane.model_id);
    std::vector<std::future<apm::EvalOutput>> served;
    for (int p = 0; p < kGatePositions; ++p) {
      served.push_back(queue.submit_future(pos.data() + p * in_size));
    }
    const apm::NetConfig& cfg = lane.net->config();
    apm::Tensor x({1, cfg.in_channels, cfg.height, cfg.width});
    apm::Tensor policy, value;
    apm::Activations acts;
    int mismatches = 0;
    for (int p = 0; p < kGatePositions; ++p) {
      std::copy_n(pos.data() + p * in_size, in_size, x.data());
      if (lane.qnet != nullptr) {
        lane.qnet->predict(x, acts, policy, value);
      } else {
        lane.net->predict(x, acts, policy, value);
      }
      const apm::EvalOutput out = served[static_cast<std::size_t>(p)].get();
      const bool same =
          out.policy.size() == policy.numel() &&
          std::memcmp(out.policy.data(), policy.data(),
                      policy.numel() * sizeof(float)) == 0 &&
          std::memcmp(&out.value, value.data(), sizeof(float)) == 0;
      mismatches += same ? 0 : 1;
    }
    if (mismatches > 0) {
      errors.push_back(std::string("gate: lane ") + lane.spec->model + " " +
                       std::to_string(mismatches) + "/" +
                       std::to_string(kGatePositions) +
                       " outputs differ from a direct predict");
    }
  }
}

int argmax(const std::vector<float>& v) {
  return static_cast<int>(std::max_element(v.begin(), v.end()) - v.begin());
}

// Per-game results digest: moves, winner (finished games only) and the
// argmax of every sample's search policy.
std::uint64_t game_digest(int moves, bool completed, int winner,
                          const std::vector<apm::TrainSample>& samples) {
  Digest d;
  d.add(moves);
  d.add(completed ? winner : 2);
  for (const apm::TrainSample& s : samples) d.add(argmax(s.pi));
  return d.value();
}

std::uint64_t game_digest(const apm::GameRecord& r) {
  return game_digest(r.stats.moves, r.completed, r.stats.winner, r.samples);
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Sanity of one game record, whatever the workload: a decided or drawn
// winner, well-formed search policies, finite values and timings.
bool game_sane(const apm::GameRecord& r, std::string& why) {
  if (r.stats.winner < -1 || r.stats.winner > 1) {
    why = "winner out of range";
    return false;
  }
  if (r.completed && r.stats.moves < 1) {
    why = "completed game without moves";
    return false;
  }
  if (static_cast<int>(r.samples.size()) != r.stats.moves ||
      static_cast<int>(r.stats.per_move.size()) != r.stats.moves) {
    why = "sample/move count mismatch";
    return false;
  }
  for (const apm::TrainSample& s : r.samples) {
    double sum = 0.0;
    for (float p : s.pi) {
      if (!std::isfinite(p) || p < 0.0f) {
        why = "non-finite or negative policy";
        return false;
      }
      sum += p;
    }
    if (std::fabs(sum - 1.0) > 1e-3 || !std::isfinite(s.z) ||
        std::fabs(s.z) > 1.0f) {
      why = "policy not normalised or value out of range";
      return false;
    }
  }
  for (const apm::EngineMoveStats& m : r.stats.per_move) {
    const double secs = m.metrics.move_seconds;
    if (!std::isfinite(secs) || secs < 0.0) {
      why = "non-finite move time";
      return false;
    }
  }
  return true;
}

// Re-plays the first `moves` moves of one served game on a standalone
// engine over the lane's net — no queue, no cache, no TT, no other games —
// with the seeds the service derives for (workload, game id) (MatchService
// header: seeds are a pure function of that pair). Returns the digest.
std::uint64_t replay_digest(const Stack& st, std::size_t lane_idx,
                            const apm::GameRecord& served) {
  const apm::ServiceWorkload& w = st.service_workloads[lane_idx];
  const auto id = static_cast<std::uint64_t>(served.game_id);
  apm::EngineConfig ec = w.engine;
  ec.mcts.seed = w.engine.mcts.seed + id * st.service_cfg.engine_seed_stride;
  apm::SelfPlayConfig sp = w.self_play;
  sp.seed = w.self_play.seed + id * st.service_cfg.game_seed_stride;
  apm::SearchResources res;
  res.evaluator = st.lanes[lane_idx]->eval.get();
  apm::SearchEngine engine(ec, res);
  apm::EpisodeRunner runner(*w.proto, sp);
  while (!runner.done() && runner.moves() < served.stats.moves) {
    runner.step([&](const apm::Game& g) { return engine.search(g); },
                [&](int action) { engine.advance(action); });
  }
  const bool completed = runner.done();
  std::vector<apm::TrainSample> samples;
  const apm::EpisodeStats stats = runner.finish(
      [&samples](apm::TrainSample&& s) { samples.push_back(std::move(s)); });
  return game_digest(stats.moves, completed, stats.winner, samples);
}

// Deterministic workloads: the lowest-id game of each lane, finished or
// cut off by the window, must replay to the same digest.
void replay_check(const Stack& st, const std::vector<apm::GameRecord>& recs,
                  std::vector<std::string>& errors) {
  std::vector<const apm::GameRecord*> pick(st.lanes.size(), nullptr);
  for (const apm::GameRecord& r : recs) {
    const auto w = static_cast<std::size_t>(r.workload);
    if (r.stats.moves > 0 &&
        (pick[w] == nullptr || r.game_id < pick[w]->game_id)) {
      pick[w] = &r;
    }
  }
  std::vector<std::future<std::uint64_t>> replays(pick.size());
  for (std::size_t w = 0; w < pick.size(); ++w) {
    if (pick[w] == nullptr) continue;
    replays[w] = std::async(std::launch::async,
                            [&st, w, r = pick[w]] {
                              return replay_digest(st, w, *r);
                            });
  }
  for (std::size_t w = 0; w < pick.size(); ++w) {
    if (pick[w] == nullptr) continue;
    if (replays[w].get() != game_digest(*pick[w])) {
      errors.push_back(std::string("replay: lane ") + st.lanes[w]->spec->model +
                       " game " + std::to_string(pick[w]->game_id) +
                       " differs from its standalone replay");
    }
  }
}

// ---------------------------------------------------------------------------
// One measured pass.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  int games = 0;  // > 0: fixed games per lane instead of a time window
  std::string out_dir = "build-bench/out";
  std::string commit;
  bool dirty = false;
};

// How often the window-mode load generator looks for finished games.
constexpr auto kFeedPoll = std::chrono::milliseconds(2);
// Window mode plays this long before the measured window opens: the first
// moves run at the lanes' default batch threshold until the aggregate
// controller's first retunes, and took up to 1.5x their steady time.
constexpr double kWarmupS = 3.0;
// Throughput is the interquartile mean over windows of this length: a
// shared host's vCPUs can lose half their speed for a second at a time,
// and trimming the outer windows keeps such bursts from setting the run's
// number (a plain median of per-second counts would be quantised to whole
// moves).
constexpr double kRateWindowS = 1.0;
// Move-time percentiles are taken per block of at least this many moves in
// completion order (so a block's p95 has 10 samples beyond it), and the run
// reports the median over blocks: a burst of host slowness lifts the p95 of
// the block it falls in, not the run's.
constexpr std::size_t kPercentileBlock = 200;
constexpr auto kDrainDeadline = std::chrono::seconds(120);

// One measured move. `end_s` is when it finished, in seconds since start():
// a game's last move ends when the load generator collects the game (or
// when stop() returns, for games it cut off), and each earlier move ends
// where the next one began. Slots are requeued as soon as a move commits
// and every workload has no more live games than workers, so the gaps
// between a game's moves are tree advances of well under a millisecond.
struct MoveSample {
  double end_s = 0.0;
  double ms = 0.0;
  double playouts = 0.0;
};

struct PassResult {
  double wall_s = 0.0;
  bool timed_out = false;
  // The measured moves in completion order: those inside the window in
  // window mode, every move in fixed-games mode.
  std::vector<MoveSample> moves;
  double measured_s = 0.0;  // the window, or the wall time of a fixed run
  bool windowed = false;
  std::vector<apm::GameRecord> records;
  apm::ServiceStats stats;
  std::vector<CallCounts> backend;  // per lane, this pass only
  std::vector<CallCounts> nn;
};

void add_moves(const apm::GameRecord& r, double done_s,
               std::vector<MoveSample>& out) {
  double end = done_s;
  for (auto m = r.stats.per_move.rbegin(); m != r.stats.per_move.rend();
       ++m) {
    out.push_back({end, m->metrics.move_seconds * 1e3,
                   static_cast<double>(m->metrics.playouts)});
    end -= m->metrics.move_seconds;
  }
}

PassResult run_pass(Stack& st, const Options& opt, SpanLog& log) {
  apm::MatchService& svc = *st.service;
  // Games handed to each lane so far. In window mode a lane's slots are its
  // clients: each starts its next game when its previous one ends, so a
  // lane always has exactly `slots` games queued or in play.
  std::vector<int> issued;
  for (int w = 0; w < svc.workload_count(); ++w) {
    issued.push_back(opt.games > 0 ? opt.games : st.lanes[w]->spec->slots);
    svc.enqueue_workload(w, issued.back());
  }
  PassResult p;
  p.windowed = opt.games == 0;
  std::vector<CallCounts> b0, n0;
  for (const auto& lane : st.lanes) {
    b0.push_back(lane->backend->counts());
    n0.push_back(lane->timed_eval->counts());
  }
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  const auto since_start = [t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const auto collect = [&] {
    const double now = since_start();
    for (apm::GameRecord& r : svc.take_completed()) {
      add_moves(r, now, p.moves);
      p.records.push_back(std::move(r));
    }
  };
  {
    PhaseSpan span(log, "serve.drain");
    svc.start();
    if (!p.windowed) {
      auto drained = std::async(std::launch::async, [&svc] { svc.drain(); });
      if (drained.wait_for(kDrainDeadline) != std::future_status::ready) {
        p.timed_out = true;
        svc.stop();  // releases drain(); unfinished games retire abandoned
      }
      drained.get();
    } else {
      const double end_s = kWarmupS + opt.seconds;
      const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(end_s));
      std::vector<int> finished(issued.size(), 0);
      while (Clock::now() < end) {
        std::this_thread::sleep_until(
            std::min(end, Clock::now() + kFeedPoll));
        const std::size_t before = p.records.size();
        collect();
        for (std::size_t i = before; i < p.records.size(); ++i) {
          ++finished[static_cast<std::size_t>(p.records[i].workload)];
        }
        for (int w = 0; w < svc.workload_count(); ++w) {
          const int refill = finished[w] + st.lanes[w]->spec->slots - issued[w];
          if (refill > 0 && svc.enqueue_workload(w, refill)) {
            issued[w] += refill;
          }
        }
      }
      // Games that finished before the window closed get their own
      // completion time, not the end of the stop() below (which waits for
      // every in-flight move).
      collect();
    }
    svc.stop();
    p.wall_s = since_start();
  }
  p.stats = svc.stats();
  collect();
  std::sort(p.moves.begin(), p.moves.end(),
            [](const MoveSample& a, const MoveSample& b) {
              return a.end_s < b.end_s;
            });
  if (p.windowed) {
    p.measured_s = opt.seconds;
    std::erase_if(p.moves, [&opt](const MoveSample& m) {
      return m.end_s <= kWarmupS || m.end_s > kWarmupS + opt.seconds;
    });
  } else {
    p.measured_s = p.wall_s;
  }
  std::sort(p.records.begin(), p.records.end(),
            [](const apm::GameRecord& a, const apm::GameRecord& b) {
              return std::pair(a.workload, a.game_id) <
                     std::pair(b.workload, b.game_id);
            });
  for (std::size_t i = 0; i < st.lanes.size(); ++i) {
    p.backend.push_back(st.lanes[i]->backend->counts() - b0[i]);
    p.nn.push_back(st.lanes[i]->timed_eval->counts() - n0[i]);
  }
  return p;
}

struct GameTally {
  long attempted = 0;
  long failed = 0;
};

// Per-game checks: sanity everywhere; in fixed-games mode every game must
// finish (a game cut off by the window end in window mode is truncated by
// design, not failed).
GameTally check_games(const PassResult& p, const Options& opt,
                      std::vector<std::string>& errors) {
  GameTally t;
  for (const apm::GameRecord& r : p.records) {
    ++t.attempted;
    std::string why;
    bool ok = game_sane(r, why);
    if (ok && opt.games > 0 && !r.completed) {
      ok = false;
      why = p.timed_out ? "drain deadline expired" : "abandoned";
    }
    if (!ok) {
      ++t.failed;
      errors.push_back("game " + r.model + "#" + std::to_string(r.game_id) +
                       ": " + why);
    }
  }
  if (t.attempted == 0) errors.push_back("no game was attempted");
  return t;
}

// Peak resident set of the process (the kernel's VmHWM; ru_maxrss is in
// KiB on Linux).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Metrics.

double safe_div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

// Moves finished in each whole rate window of the measured window, per
// second.
std::vector<double> window_rates(const PassResult& p) {
  const auto windows = static_cast<std::size_t>(p.measured_s / kRateWindowS);
  std::vector<double> counts(windows, 0.0);
  for (const MoveSample& m : p.moves) {
    const auto w =
        static_cast<std::size_t>((m.end_s - kWarmupS) / kRateWindowS);
    if (w < windows) counts[w] += 1.0;
  }
  for (double& c : counts) c /= kRateWindowS;
  return counts;
}

// Committed moves per second: the interquartile mean over the rate
// windows; a fixed-games run (or a window shorter than four rate windows)
// falls back to moves / measured time.
double moves_per_s(const PassResult& p) {
  if (p.windowed && p.measured_s >= 4 * kRateWindowS) {
    return interquartile_mean(window_rates(p));
  }
  return safe_div(static_cast<double>(p.moves.size()), p.measured_s);
}

void add_end_to_end(Report& r, const PassResult& p, double setup_s,
                    const GameTally& tally) {
  std::vector<double> move_ms;
  double playouts = 0.0;
  for (const MoveSample& m : p.moves) {
    move_ms.push_back(m.ms);
    playouts += m.playouts;
  }
  const double mps = moves_per_s(p);
  add_metric(r, "moves_per_s", mps);
  // Playouts per move times the move rate: a "gain" that comes from
  // searching less shows up here.
  add_metric(r, "playouts_per_s",
             safe_div(mps * playouts, static_cast<double>(move_ms.size())));
  if (!move_ms.empty()) {
    add_metric(r, "move_ms_p50",
               blocked_percentile(move_ms, 0.50, kPercentileBlock));
    add_metric(r, "move_ms_p95",
               blocked_percentile(move_ms, 0.95, kPercentileBlock));
  }
  add_metric(r, "setup_s", setup_s);
  add_metric(r, "peak_rss_mb", peak_rss_mb());
  const std::size_t blocks = percentile_blocks(move_ms.size(), kPercentileBlock);
  r.add("move_samples", static_cast<double>(move_ms.size()), "count",
        Tier::kInfo);
  r.add("move_percentile_blocks", static_cast<double>(blocks), "count",
        Tier::kInfo);
  r.add("move_samples_beyond_p95_per_block",
        static_cast<double>(samples_beyond(move_ms.size() / blocks, 0.95)),
        "count", Tier::kInfo);
  r.add("fail_frac",
        tally.attempted > 0 ? static_cast<double>(tally.failed) /
                                  static_cast<double>(tally.attempted)
                            : 1.0,
        "frac", Tier::kInfo);
  r.add("wall_s", p.wall_s, "s", Tier::kInfo);
  r.add("moves_per_s_untrimmed",
        safe_div(static_cast<double>(move_ms.size()), p.measured_s), "moves/s",
        Tier::kInfo);
  r.add("rate_windows", static_cast<double>(window_rates(p).size()), "count",
        Tier::kInfo);
}

// Lane queue window of one pass, summed over `lanes` (ServiceLaneStats).
struct EvalWindow {
  double submitted = 0, hits = 0, coalesced = 0, batches = 0, stale = 0;
  double threshold_sum = 0;
  int lanes = 0;
  apm::obs::HistogramSnapshot batch_wait, request;
};

EvalWindow eval_window(const std::vector<const apm::ServiceLaneStats*>& lanes) {
  EvalWindow w;
  for (const apm::ServiceLaneStats* ls : lanes) {
    w.submitted += static_cast<double>(ls->batch.submitted);
    w.hits += static_cast<double>(ls->batch.cache_hits);
    w.coalesced += static_cast<double>(ls->batch.coalesced);
    w.batches += static_cast<double>(ls->batch.batches);
    w.stale += static_cast<double>(ls->batch.stale_flushes);
    w.threshold_sum += ls->threshold;
    ++w.lanes;
    w.batch_wait.merge(ls->batch_wait_ns);
    w.request.merge(ls->request_latency_ns);
  }
  return w;
}

double requests(const EvalWindow& w) {
  return w.submitted + w.hits + w.coalesced;
}

// Eval-layer metrics under `prefix` ("eval." for the aggregate over every
// lane, "lane.<model>.eval." for one lane of a multi-lane workload).
// `overhead_us` is the request p50 minus the backend time per evaluation
// (for the aggregate: the request-weighted mean over lanes).
void add_eval(Report& r, const std::string& prefix, const EvalWindow& w,
              double overhead_us, bool catalogued) {
  const auto put = [&](const std::string& name, double v, const char* unit) {
    if (catalogued) {
      add_metric(r, prefix + name, v);
    } else {
      r.add(prefix + name, v, unit, Tier::kInfo);
    }
  };
  put("requests", requests(w), "count");
  put("cache_hit_rate", safe_div(w.hits, requests(w)), "frac");
  put("coalesced", w.coalesced, "count");
  put("batches", w.batches, "count");
  put("mean_fill", safe_div(w.submitted, w.batches), "evals/batch");
  put("stale_flush_share", safe_div(w.stale, w.batches), "frac");
  put("threshold_final", safe_div(w.threshold_sum, w.lanes), "evals");
  put("batch_wait_us_p50", w.batch_wait.quantile(0.50) * 1e-3, "us");
  put("batch_wait_us_p95", w.batch_wait.quantile(0.95) * 1e-3, "us");
  put("request_us_p50", w.request.quantile(0.50) * 1e-3, "us");
  put("request_us_p95", w.request.quantile(0.95) * 1e-3, "us");
  put("request_overhead_us", overhead_us, "us");
}

void add_layers(Report& r, const Stack& st, const PassResult& p,
                const NetProfile& prof, double trace_overhead) {
  // nn: the first lane's net (the int8 Gomoku lane of zoo_mixed).
  const CallCounts& nn0 = p.nn[0];
  add_metric(r, "nn.forward_us_per_eval",
             safe_div(static_cast<double>(nn0.busy_ns) * 1e-3,
                      static_cast<double>(nn0.evals)));
  for (const LayerProfile& l : prof.layers) {
    add_metric(r, "nn." + l.name + ".us", l.us);
    add_metric(r, "nn." + l.name + ".gflops", l.gflops());
    if (l.conv) {
      add_metric(r, "nn." + l.name + ".im2col_us", l.im2col_us);
      add_metric(r, "nn." + l.name + ".gemm_us", l.gemm_us);
    }
  }
  add_metric(r, "nn.layer_closure",
             closure(prof.layer_sum_us(), prof.predict_us));

  // backend: every lane.
  double calls = 0, evals = 0, busy_ns = 0, hist_ns = 0, streams = 0;
  std::map<int, const apm::ServiceLaneStats*> by_model;
  for (const apm::ServiceLaneStats& ls : p.stats.lanes) {
    by_model[ls.model_id] = &ls;
  }
  std::vector<const apm::ServiceLaneStats*> lane_stats;
  for (std::size_t i = 0; i < st.lanes.size(); ++i) {
    const Lane& lane = *st.lanes[i];
    calls += static_cast<double>(p.backend[i].calls);
    evals += static_cast<double>(p.backend[i].evals);
    busy_ns += static_cast<double>(p.backend[i].busy_ns);
    streams += st.pool->queue(lane.model_id).num_streams();
    const apm::ServiceLaneStats* ls = by_model.at(lane.model_id);
    hist_ns += static_cast<double>(ls->backend_eval_ns.sum);
    lane_stats.push_back(ls);
  }
  const double backend_us_per_eval = safe_div(busy_ns * 1e-3, evals);
  add_metric(r, "backend.calls", calls);
  add_metric(r, "backend.busy_s", busy_ns * 1e-9);
  add_metric(r, "backend.busy_frac",
             safe_div(busy_ns * 1e-9, p.wall_s * streams));
  add_metric(r, "backend.us_per_eval", backend_us_per_eval);
  add_metric(r, "backend.closure", closure(busy_ns, hist_ns));

  // eval: aggregate, plus one info block per lane when there are several.
  std::vector<double> lane_backend_us, lane_overhead_us;
  double overhead_sum = 0.0, request_sum = 0.0;
  for (std::size_t i = 0; i < st.lanes.size(); ++i) {
    const EvalWindow w = eval_window({lane_stats[i]});
    lane_backend_us.push_back(
        safe_div(static_cast<double>(p.backend[i].busy_ns) * 1e-3,
                 static_cast<double>(p.backend[i].evals)));
    lane_overhead_us.push_back(w.request.quantile(0.50) * 1e-3 -
                               lane_backend_us.back());
    overhead_sum += requests(w) * lane_overhead_us.back();
    request_sum += requests(w);
  }
  add_eval(r, "eval.", eval_window(lane_stats),
           safe_div(overhead_sum, request_sum), true);
  if (st.lanes.size() > 1) {
    for (std::size_t i = 0; i < st.lanes.size(); ++i) {
      const std::string prefix =
          std::string("lane.") + st.lanes[i]->spec->model + ".";
      r.add(prefix + "backend.us_per_eval", lane_backend_us[i], "us",
            Tier::kInfo);
      add_eval(r, prefix + "eval.", eval_window({lane_stats[i]}),
               lane_overhead_us[i], false);
    }
  }

  // mcts (+ the perf-model residual): every move of every game.
  double moves = 0, playouts = 0, sel = 0, exp = 0, bak = 0, ev = 0;
  double expansions = 0, grafts = 0, requests = 0, pending = 0, reused = 0;
  double depth = 0, switches = 0, workers = 0, resource_s = 0;
  double serial = 0, shared = 0, local = 0;
  std::vector<double> residuals;
  for (const apm::GameRecord& g : p.records) {
    for (const apm::EngineMoveStats& m : g.stats.per_move) {
      const apm::SearchMetrics& sm = m.metrics;
      moves += 1;
      playouts += sm.playouts;
      sel += sm.select_seconds;
      exp += sm.expand_seconds;
      bak += sm.backup_seconds;
      ev += sm.eval_seconds;
      expansions += static_cast<double>(sm.expansions);
      grafts += static_cast<double>(sm.tt_grafts);
      requests += static_cast<double>(sm.eval_requests);
      pending += static_cast<double>(sm.tt_pending);
      reused += static_cast<double>(sm.reused_visits);
      depth += sm.sum_depth;
      switches += m.switched ? 1 : 0;
      workers += m.workers;
      // Phase times are summed over the threads that run them: every
      // worker under SharedTree, only the master under Serial and
      // LocalTree (whose N counts requests in flight, not timed threads).
      resource_s += sm.move_seconds *
                    (m.scheme == apm::Scheme::kSharedTree ? m.workers : 1);
      serial += m.scheme == apm::Scheme::kSerial ? 1 : 0;
      shared += m.scheme == apm::Scheme::kSharedTree ? 1 : 0;
      local += m.scheme == apm::Scheme::kLocalTree ? 1 : 0;
      const double measured = sm.amortized_iteration_us();
      if (m.current_predicted_us > 0.0 && measured > 0.0) {
        residuals.push_back(std::fabs(m.current_predicted_us - measured) /
                            measured);
      }
    }
  }
  add_metric(r, "mcts.playouts", playouts);
  add_metric(r, "mcts.select_s", sel);
  add_metric(r, "mcts.expand_s", exp);
  add_metric(r, "mcts.backup_s", bak);
  add_metric(r, "mcts.eval_wait_s", ev);
  add_metric(r, "mcts.in_tree_us_per_playout",
             safe_div((sel + exp + bak) * 1e6, playouts));
  add_metric(r, "mcts.expansions", expansions);
  add_metric(r, "mcts.tt_graft_rate", safe_div(grafts, grafts + requests));
  add_metric(r, "mcts.tt_pending", pending);
  add_metric(r, "mcts.reused_visit_frac", safe_div(reused, reused + playouts));
  add_metric(r, "mcts.mean_depth", safe_div(depth, playouts));
  add_metric(r, "mcts.scheme_switches", switches);
  add_metric(r, "mcts.share.serial", safe_div(serial, moves));
  add_metric(r, "mcts.share.shared_tree", safe_div(shared, moves));
  add_metric(r, "mcts.share.local_tree", safe_div(local, moves));
  add_metric(r, "mcts.workers_mean", safe_div(workers, moves));
  add_metric(r, "mcts.phase_closure",
             closure(sel + exp + bak + ev, resource_s));
  add_metric(r, "perfmodel.eq36_residual_p50",
             residuals.empty() ? 0.0 : exact_percentile(residuals, 0.50));

  // serve.
  add_metric(r, "serve.games_attempted", static_cast<double>(p.records.size()));
  double completed = 0;
  for (const apm::GameRecord& g : p.records) completed += g.completed ? 1 : 0;
  add_metric(r, "serve.games_completed", completed);
  add_metric(r, "serve.moves", moves);
  add_metric(r, "serve.threshold_retunes", p.stats.threshold_retunes);
  add_metric(r, "serve.worker_occupancy",
             safe_div(p.stats.search_seconds, p.wall_s * p.stats.workers));
  add_metric(r, "trace_overhead_frac", trace_overhead);
}

// ---------------------------------------------------------------------------
// Driver.

// Ends the process if a run overstays its budget (a wedged lane must not
// hang the caller); cancelled on the normal path.
class HardDeadline {
 public:
  explicit HardDeadline(std::chrono::seconds limit)
      : thread_([this, limit](std::stop_token stop) {
          std::unique_lock lock(mutex_);
          if (!cv_.wait_for(lock, stop, limit, [] { return false; })) {
            if (stop.stop_requested()) return;
            std::fprintf(stderr, "e2e_bench: hard deadline of %llds hit\n",
                         static_cast<long long>(limit.count()));
            std::fflush(stderr);
            std::_Exit(3);
          }
        }) {}

 private:
  std::mutex mutex_;
  std::condition_variable_any cv_;
  std::jthread thread_;  // declared last: joins before the cv dies
};

struct Setup {
  std::unique_ptr<Stack> stack;
  double median_s = 0.0;
};

// Builds the stack `reps` times and keeps the last; set-up time is the
// median over the repetitions. Gates run on the kept stack before its
// service exists and are not part of the timed set-up.
Setup timed_setup(const WorkloadSpec& spec, std::uint64_t seed, SpanLog& log,
                  int reps, std::vector<std::string>* gate_errors) {
  using Clock = std::chrono::steady_clock;
  Setup s;
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    s.stack.reset();  // every repetition starts from the same heap state
    auto t0 = Clock::now();
    std::unique_ptr<Stack> st = build_lanes(spec, log);
    warm_lanes(*st);
    double secs = std::chrono::duration<double>(Clock::now() - t0).count();
    if (i == reps - 1 && gate_errors != nullptr) {
      gate_lanes(*st, seed, *gate_errors);
    }
    t0 = Clock::now();
    make_service(*st, seed);
    secs += std::chrono::duration<double>(Clock::now() - t0).count();
    times.push_back(secs);
    s.stack = std::move(st);
  }
  s.median_s = median(times);
  return s;
}

std::string result_base(const Options& opt) {
  return opt.out_dir + "/" + opt.workload + ".seed" +
         std::to_string(opt.seed) + ".trace" + (opt.trace ? "1" : "0");
}

Json games_json(const PassResult& p, const WorkloadSpec& spec) {
  Json games{Json::Array{}};
  for (const apm::GameRecord& r : p.records) {
    if (!r.completed) continue;
    Json g = Json::object();
    g.set("lane", spec.lanes[static_cast<std::size_t>(r.workload)].model);
    g.set("game_id", r.game_id);
    g.set("moves", r.stats.moves);
    g.set("winner", r.stats.winner);
    g.set("digest", hex(game_digest(r)));
    games.push(g);
  }
  return games;
}

// Digest over the finished games of the pass, in (lane, game id) order.
std::uint64_t run_digest(const PassResult& p) {
  Digest d;
  for (const apm::GameRecord& r : p.records) {
    if (!r.completed) continue;
    d.add(r.workload);
    d.add(r.game_id);
    d.add(static_cast<std::int64_t>(game_digest(r)));
  }
  return d.value();
}

// Per-game digests of two passes over the same inputs must agree on every
// game both finished.
void compare_passes(const PassResult& a, const PassResult& b,
                    std::vector<std::string>& errors) {
  std::map<std::pair<int, int>, std::uint64_t> seen;
  for (const apm::GameRecord& r : a.records) {
    if (r.completed) seen[{r.workload, r.game_id}] = game_digest(r);
  }
  int common = 0, differ = 0;
  for (const apm::GameRecord& r : b.records) {
    if (!r.completed) continue;
    const auto it = seen.find({r.workload, r.game_id});
    if (it == seen.end()) continue;
    ++common;
    differ += it->second != game_digest(r) ? 1 : 0;
  }
  if (differ > 0) {
    errors.push_back(std::to_string(differ) + " of " + std::to_string(common) +
                     " games differ between the untraced and traced passes");
  }
}

int run_workload(const Options& opt) {
  const WorkloadSpec* spec = find_workload(opt.workload);
  const Provenance prov = Provenance::detect(opt.commit, opt.dirty, opt.seed);
  std::filesystem::create_directories(opt.out_dir);
  SpanLog log;
  std::vector<std::string> errors;
  Report report;

  // A traced run plays two passes of half the window each, so it costs
  // about as long as an untraced one.
  Options pass_opt = opt;
  if (opt.trace) pass_opt.seconds = opt.seconds / 2;

  constexpr int kSetupReps = 15;
  Setup setup = timed_setup(*spec, opt.seed, log, kSetupReps, &errors);
  PassResult pass = run_pass(*setup.stack, pass_opt, log);
  GameTally tally = check_games(pass, opt, errors);
  if (spec->deterministic()) replay_check(*setup.stack, pass.records, errors);
  setup.stack.reset();  // idle lanes must not share the host with a traced pass

  Json extra = Json::object();
  if (!opt.trace) {
    add_end_to_end(report, pass, setup.median_s, tally);
  } else {
    // Second pass on a fresh stack (cold caches and TTs, like the first),
    // with both recorders on. The obs recorder is armed before the stack
    // exists so stream and worker threads name their tracks.
    apm::obs::set_trace_capacity(std::size_t{1} << 12);
    apm::obs::set_tracing(true);
    log.set_enabled(true);
    Setup traced_setup;
    PassResult traced;
    {
      PhaseSpan span(log, "workload");
      traced_setup = timed_setup(*spec, opt.seed, log, 1, nullptr);
      traced = run_pass(*traced_setup.stack, pass_opt, log);
    }
    log.set_enabled(false);
    apm::obs::set_tracing(false);
    const GameTally t2 = check_games(traced, opt, errors);
    tally.attempted += t2.attempted;
    tally.failed += t2.failed;
    if (spec->deterministic()) compare_passes(pass, traced, errors);

    const std::string probes_path = result_base(opt) + ".probes.trace.json";
    const std::string obs_path = result_base(opt) + ".obs.trace.json";
    if (!log.write_chrome(probes_path) ||
        !apm::obs::write_chrome_trace_file(obs_path,
                                           apm::obs::snapshot_trace())) {
      errors.push_back("cannot write traces under " + opt.out_dir);
    }
    extra.set("probe_trace", probes_path);
    extra.set("obs_trace", obs_path);
    extra.set("probe_spans", static_cast<double>(log.size()));
    extra.set("probe_spans_dropped", static_cast<double>(log.dropped()));

    const Lane& lane0 = *traced_setup.stack->lanes[0];
    std::vector<std::size_t> mix;
    for (const apm::ServiceLaneStats& ls : traced.stats.lanes) {
      if (ls.model_id == lane0.model_id) mix = ls.batch.fill_histogram;
    }
    if (mix.size() < 2) mix = {0, 1};
    const NetProfile prof = profile_net(
        lane0.qnet != nullptr ? nullptr : lane0.net.get(), lane0.qnet.get(),
        gate_positions(*lane0.proto, derive_seed(opt.seed, 0, SeedRole::kGate)),
        mix);
    const double untraced_mps = moves_per_s(pass);
    add_layers(report, *traced_setup.stack, traced, prof,
               safe_div(untraced_mps - moves_per_s(traced), untraced_mps));
    for (const ClosureCheck& c : closure_checks()) {
      const double v = report.find(c.metric)->value;
      if (!closure_ok(v, c.tolerance)) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "closure: %s = %.4f outside 1 +/- %.2f",
                      c.metric, v, c.tolerance);
        errors.push_back(buf);
      }
    }
  }

  const bool correct = errors.empty() && tally.failed == 0;
  const std::uint64_t digest = run_digest(pass);
  std::printf("workload %s seed %llu %s\n", spec->name,
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "untraced");
  std::printf("%s", report.lines().c_str());
  if (spec->deterministic()) std::printf("digest %s\n", hex(digest).c_str());
  for (const std::string& e : errors) std::printf("FAIL %s\n", e.c_str());

  Json result = Json::object();
  result.set("workload", spec->name);
  result.set("seed", static_cast<double>(opt.seed));
  result.set("trace", opt.trace);
  result.set("seconds", opt.games > 0 ? 0.0 : opt.seconds);
  result.set("games_per_lane", opt.games);
  result.set("correct", correct);
  result.set("attempted", tally.attempted);
  result.set("failed", tally.failed);
  result.set("provenance", prov.to_json());
  result.set("metrics", report.all_json());
  result.set("deterministic", spec->deterministic());
  result.set("digest", hex(digest));
  Json rates{Json::Array{}};
  if (pass.windowed) {
    for (double r : window_rates(pass)) rates.push(r);
  }
  result.set("window_rates", rates);
  result.set("games", games_json(pass, *spec));
  Json errs{Json::Array{}};
  for (const std::string& e : errors) errs.push(e);
  result.set("errors", errs);
  for (const auto& [k, v] : extra.items()) result.set(k, v);
  const std::string result_path = result_base(opt) + ".json";
  if (!write_file(result_path, result.dump(1) + "\n")) {
    std::fprintf(stderr, "cannot write %s\n", result_path.c_str());
    return 1;
  }
  std::printf("result %s\n", result_path.c_str());
  std::printf("%s\n", report
                          .contract_line(correct, tally.attempted, tally.failed,
                                         opt.trace ? Tier::kLayer
                                                   : Tier::kEndToEnd)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --summarize: medians and quartiles across result files, digest agreement.

int summarize(const std::vector<std::string>& files, const std::string& out) {
  struct Series {
    std::vector<double> values;
    std::string unit;
  };
  std::map<std::string, std::map<std::string, Series>> groups;
  std::map<std::string, std::string> digests;  // workload|seed|lane|id
  std::map<std::string, int> runs, failures;
  std::map<double, int> seeds, windows;  // value -> run count
  Json provenance;
  int conflicts = 0;
  for (const std::string& path : files) {
    std::string text;
    if (!read_file(path, text)) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 2;
    }
    const Json j = Json::parse(text);
    const bool traced = j.at("trace").boolean();
    const std::string group =
        j.at("workload").str() + (traced ? ".traced" : "");
    ++runs[group];
    if (!j.at("correct").boolean()) ++failures[group];
    ++seeds[j.at("seed").number()];
    ++windows[j.at("seconds").number()];
    if (provenance.type() == Json::Type::kNull) {
      // The host and build stamp of the first run; seeds are listed below.
      provenance = Json::object();
      for (const auto& [k, v] : j.at("provenance").items()) {
        if (k != "seed") provenance.set(k, v);
      }
    }
    const Json& tier =
        j.at("metrics").at(traced ? "per_layer" : "end_to_end");
    for (const auto& [name, m] : tier.items()) {
      Series& s = groups[group][name];
      s.values.push_back(m.at("value").number());
      s.unit = m.at("unit").str();
    }
    // Only deterministic workloads promise the same game for the same
    // (seed, lane, game id).
    if (!j.at("deterministic").boolean()) continue;
    for (const Json& g : j.at("games").array()) {
      const std::string key = j.at("workload").str() + "|" +
                              std::to_string(static_cast<long>(
                                  j.at("seed").number())) +
                              "|" + g.at("lane").str() + "|" +
                              std::to_string(static_cast<long>(
                                  g.at("game_id").number()));
      const auto [it, fresh] = digests.emplace(key, g.at("digest").str());
      if (!fresh && it->second != g.at("digest").str()) ++conflicts;
    }
  }

  Json summary = Json::object();
  summary.set("provenance", provenance);
  const auto keys = [](const std::map<double, int>& m) {
    Json a{Json::Array{}};
    for (const auto& [k, n] : m) a.push(k);
    return a;
  };
  summary.set("seeds", keys(seeds));
  summary.set("seconds", keys(windows));
  Json by_group = Json::object();
  for (const auto& [group, metrics] : groups) {
    Json g = Json::object();
    g.set("runs", runs[group]);
    g.set("failed_runs", failures[group]);
    Json ms = Json::object();
    std::printf("%s (%d runs)\n", group.c_str(), runs[group]);
    for (const auto& [name, s] : metrics) {
      Json m = Json::object();
      m.set("unit", s.unit);
      m.set("n", static_cast<double>(s.values.size()));
      m.set("median", median(s.values));
      m.set("min", *std::min_element(s.values.begin(), s.values.end()));
      m.set("max", *std::max_element(s.values.begin(), s.values.end()));
      if (s.values.size() >= 2) {
        const Quartiles q = quartiles(s.values);
        m.set("q1", q.q1);
        m.set("q3", q.q3);
        m.set("iqr_share", iqr_share(s.values));
        std::printf("  %-32s median %12.6g %-12s q1 %12.6g q3 %12.6g "
                    "iqr/median %.4f\n",
                    name.c_str(), median(s.values), s.unit.c_str(), q.q1, q.q3,
                    iqr_share(s.values));
      } else {
        std::printf("  %-32s %12.6g %s\n", name.c_str(), s.values[0],
                    s.unit.c_str());
      }
      ms.set(name, m);
    }
    g.set("metrics", ms);
    by_group.set(group, g);
  }
  summary.set("workloads", by_group);
  summary.set("digest_conflicts", conflicts);
  Json links{Json::Array{}};
  for (const LayerLink& l : layer_map()) {
    Json e = Json::object();
    e.set("layer", l.prefix);
    e.set("should_move", l.moves);
    e.set("on", l.on);
    links.push(e);
  }
  summary.set("layer_map", links);
  Json tol = Json::object();
  for (const ClosureCheck& c : closure_checks()) tol.set(c.metric, c.tolerance);
  summary.set("closure_tolerance", tol);
  std::printf("digest conflicts: %d\n", conflicts);
  if (!out.empty() && !write_file(out, summary.dump(1) + "\n")) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 2;
  }
  int failed_runs = 0;
  for (const auto& [g, n] : failures) failed_runs += n;
  return conflicts == 0 && failed_runs == 0 ? 0 : 1;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload NAME [--seed S] "
               "[--seconds T] [--trace 0|1] [--games N] [--out DIR]\n"
               "                 [--commit SHA] [--dirty 0|1]\n"
               "       e2e_bench --list\n"
               "       e2e_bench --summarize FILE... [--summary-out FILE]\n",
               msg);
  return 2;
}

bool parse_number(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0' && std::isfinite(out);
}

int main_impl(int argc, char** argv) {
  Options opt;
  std::vector<std::string> summarize_files;
  std::string summary_out;
  bool summarize_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list") {
      for (const WorkloadSpec& w : workloads()) {
        std::printf("%s\t%s\n", w.name, w.why);
      }
      return 0;
    }
    if (a == "--summarize") {
      summarize_mode = true;
      continue;
    }
    if (summarize_mode && a.rfind("--", 0) != 0) {
      summarize_files.push_back(a);
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    double num = 0.0;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--out") {
      opt.out_dir = v;
    } else if (a == "--commit") {
      opt.commit = v;
    } else if (a == "--summary-out") {
      summary_out = v;
    } else if (!parse_number(v, num)) {
      return usage(("bad number for " + a).c_str());
    } else if (a == "--seed" && num >= 0 && num == std::floor(num)) {
      opt.seed = static_cast<std::uint64_t>(num);
    } else if (a == "--seconds" && num > 0 && num <= 120) {
      opt.seconds = num;
    } else if (a == "--trace" && (num == 0 || num == 1)) {
      opt.trace = num == 1;
    } else if (a == "--games" && num >= 1 && num <= 64 &&
               num == std::floor(num)) {
      opt.games = static_cast<int>(num);
    } else if (a == "--dirty" && (num == 0 || num == 1)) {
      opt.dirty = num == 1;
    } else {
      return usage(("bad option or value: " + a + " " + v).c_str());
    }
  }
  if (summarize_mode) {
    if (summarize_files.empty()) return usage("--summarize needs files");
    return summarize(summarize_files, summary_out);
  }
  if (find_workload(opt.workload) == nullptr) {
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  const HardDeadline deadline(std::chrono::seconds(170));
  return run_workload(opt);
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
}
