// Scheme-level search tests: tactical correctness (winning/blocking moves
// on TicTacToe), cross-scheme agreement, visit conservation, virtual-loss
// cleanliness, single-worker equivalence with the serial reference, and a
// pinned serial trace.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>

#include "eval/eval_cache.hpp"
#include "eval/gpu_model.hpp"
#include "eval/net_evaluator.hpp"
#include "games/gomoku.hpp"
#include "mcts/engine.hpp"
#include "mcts/factory.hpp"

namespace apm {
namespace {

MctsConfig quick_config(int playouts) {
  MctsConfig cfg;
  cfg.num_playouts = playouts;
  cfg.c_puct = 3.0f;
  cfg.seed = 77;
  return cfg;
}

// Position where X (to move) wins immediately at action 2.
Gomoku x_wins_at_2() {
  Gomoku g = make_tictactoe();
  g.apply(0);  // X
  g.apply(3);  // O
  g.apply(1);  // X
  g.apply(4);  // O  → X completes the top row with 2
  return g;
}

// Position where O (to move) must block X at action 2.
Gomoku o_blocks_at_2() {
  Gomoku g = make_tictactoe();
  g.apply(0);  // X
  g.apply(3);  // O
  g.apply(1);  // X  → X threatens 0-1-2; O to move must take 2
  return g;
}

class SchemeWorkerMatrix
    : public ::testing::TestWithParam<std::tuple<Scheme, int>> {};

TEST_P(SchemeWorkerMatrix, FindsImmediateWin) {
  const auto [scheme, workers] = GetParam();
  const Gomoku g = x_wins_at_2();
  UniformEvaluator eval(g.action_count(), g.encode_size());
  auto search = make_search(scheme, quick_config(300), workers,
                            {.evaluator = &eval});
  const SearchResult r = search->search(g);
  EXPECT_EQ(r.best_action, 2) << to_string(scheme) << " N=" << workers;
}

TEST_P(SchemeWorkerMatrix, BlocksOpponentWin) {
  const auto [scheme, workers] = GetParam();
  const Gomoku g = o_blocks_at_2();
  UniformEvaluator eval(g.action_count(), g.encode_size());
  auto search = make_search(scheme, quick_config(600), workers,
                            {.evaluator = &eval});
  const SearchResult r = search->search(g);
  EXPECT_EQ(r.best_action, 2) << to_string(scheme) << " N=" << workers;
}

TEST_P(SchemeWorkerMatrix, ActionPriorIsDistributionOverLegalMoves) {
  const auto [scheme, workers] = GetParam();
  Gomoku g(5, 4);
  g.apply(12);
  UniformEvaluator eval(g.action_count(), g.encode_size());
  auto search = make_search(scheme, quick_config(200), workers,
                            {.evaluator = &eval});
  const SearchResult r = search->search(g);
  float total = 0.0f;
  for (std::size_t a = 0; a < r.action_prior.size(); ++a) {
    ASSERT_GE(r.action_prior[a], 0.0f);
    total += r.action_prior[a];
  }
  EXPECT_NEAR(total, 1.0f, 1e-4f);
  EXPECT_EQ(r.action_prior[12], 0.0f);  // occupied cell never visited
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeWorkerMatrix,
    ::testing::Values(std::tuple{Scheme::kSerial, 1},
                      std::tuple{Scheme::kSharedTree, 2},
                      std::tuple{Scheme::kSharedTree, 8},
                      std::tuple{Scheme::kLocalTree, 2},
                      std::tuple{Scheme::kLocalTree, 8},
                      std::tuple{Scheme::kLeafParallel, 4},
                      std::tuple{Scheme::kRootParallel, 4}),
    [](const auto& param_info) {
      std::string name = to_string(std::get<0>(param_info.param));
      name += "_w";
      name += std::to_string(std::get<1>(param_info.param));
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

std::unique_ptr<MctsSearch> make_serial(MctsConfig cfg, Evaluator& eval,
                                        SearchTree* arena = nullptr) {
  return make_search(Scheme::kSerial, cfg, 1, {.evaluator = &eval}, arena);
}

TEST(SerialSearch, DeterministicAcrossRuns) {
  Gomoku g(5, 4);
  UniformEvaluator eval(g.action_count(), g.encode_size());
  const SearchResult r1 = make_serial(quick_config(200), eval)->search(g);
  const SearchResult r2 = make_serial(quick_config(200), eval)->search(g);
  EXPECT_EQ(r1.best_action, r2.best_action);
  EXPECT_EQ(r1.action_prior, r2.action_prior);
}

TEST(LocalTreeMcts, OneWorkerMatchesSerial) {
  Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  LocalTreeMcts local(quick_config(200), 1, eval);
  EXPECT_EQ(make_serial(quick_config(200), eval)->search(g).action_prior,
            local.search(g).action_prior);
}

class ParallelInvariants
    : public ::testing::TestWithParam<std::tuple<Scheme, int>> {};

TEST_P(ParallelInvariants, VisitConservationAndCleanVirtualLoss) {
  const auto [scheme, workers] = GetParam();
  Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size(),
                          /*latency_us=*/20.0);
  auto search =
      make_search(scheme, quick_config(240), workers, {.evaluator = &eval});
  const SearchResult r = search->search(g);

  // Every playout backs up exactly one visit through the root.
  float visit_mass = 0.0f;
  for (float p : r.action_prior) visit_mass += p;
  EXPECT_NEAR(visit_mass, 1.0f, 1e-4f);
  EXPECT_EQ(r.metrics.playouts, 240);
  // Root value is a mean of values in [−1, 1].
  EXPECT_GE(r.root_value, -1.0f);
  EXPECT_LE(r.root_value, 1.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ParallelInvariants,
    ::testing::Values(std::tuple{Scheme::kSharedTree, 4},
                      std::tuple{Scheme::kSharedTree, 16},
                      std::tuple{Scheme::kLocalTree, 4},
                      std::tuple{Scheme::kLocalTree, 16}),
    [](const auto& param_info) {
      std::string name = to_string(std::get<0>(param_info.param));
      name += "_w";
      name += std::to_string(std::get<1>(param_info.param));
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(SearchMetrics, PhaseTimesAndCountsPopulated) {
  Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size(), 5.0);
  const SearchResult r = make_serial(quick_config(100), eval)->search(g);
  EXPECT_GT(r.metrics.move_seconds, 0.0);
  EXPECT_GT(r.metrics.select_seconds, 0.0);
  EXPECT_GT(r.metrics.eval_seconds, 0.0);
  EXPECT_GT(r.metrics.nodes, 1u);
  EXPECT_GT(r.metrics.amortized_iteration_us(), 0.0);
  EXPECT_EQ(r.metrics.eval_requests + r.metrics.terminal_rollouts, 100u);
}

TEST(SearchOnTerminalHeavyPosition, TerminalRolloutsCounted) {
  // Nearly-finished board: most rollouts end at terminal states.
  Gomoku g = make_tictactoe();
  for (int m : {0, 3, 1, 4}) g.apply(m);  // X one move from winning
  UniformEvaluator eval(g.action_count(), g.encode_size());
  const SearchResult r = make_serial(quick_config(200), eval)->search(g);
  EXPECT_GT(r.metrics.terminal_rollouts, 0u);
  EXPECT_EQ(r.best_action, 2);
}

TEST(GpuBatchedSearch, SharedTreeWithFullBatchQueue) {
  Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator batch(backend, /*threshold=*/8, /*streams=*/1,
                            /*stale_flush_us=*/300.0);
  SharedTreeMcts search(quick_config(160), 8, batch);
  const SearchResult r = search.search(g);
  EXPECT_GE(r.metrics.batch.batches, 1u);
  // +1: the root evaluation also flows through the queue.
  EXPECT_EQ(r.metrics.batch.submitted, r.metrics.eval_requests + 1u);
  EXPECT_LE(r.metrics.batch.max_batch, 8u);
  float mass = 0;
  for (float p : r.action_prior) mass += p;
  EXPECT_NEAR(mass, 1.0f, 1e-4f);
}

TEST(GpuBatchedSearch, LocalTreeSubBatching) {
  Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  GpuTimingModel model;
  SimGpuBackend backend(eval, model);
  AsyncBatchEvaluator batch(backend, /*threshold=*/4, /*streams=*/2,
                            /*stale_flush_us=*/300.0);
  LocalTreeMcts search(quick_config(160), 16, batch);
  const SearchResult r = search.search(g);
  EXPECT_GE(r.metrics.batch.batches, 160u / 16);
  EXPECT_LE(r.metrics.batch.max_batch, 4u);
}

TEST(NetBackedSearch, RealNetworkOnSmallBoard) {
  Gomoku g(5, 4);
  PolicyValueNet net(NetConfig::tiny(5), 3);
  NetEvaluator eval(net);
  const SearchResult r = make_serial(quick_config(60), eval)->search(g);
  EXPECT_GE(r.best_action, 0);
  EXPECT_LT(r.best_action, 25);
  EXPECT_GT(r.metrics.eval_requests, 0u);
}

// --- cross-move tree reuse ---------------------------------------------------

TEST(TreeReuse, ReusedSerialSearchIsDeterministic) {
  // Two independent arenas driven through the same search → advance_root →
  // reused-search sequence must produce identical results at every move:
  // the reused search is a pure function of (config, position, kept tree),
  // not of instance state.
  Gomoku g(5, 4);
  UniformEvaluator eval(g.action_count(), g.encode_size());
  auto play = [&](std::vector<SearchResult>& out) {
    SearchTree arena;
    auto search = make_serial(quick_config(200), eval, &arena);
    auto env = g.clone();
    for (int move = 0; move < 3; ++move) {
      const SearchResult r = search->search(*env);
      out.push_back(r);
      env->apply(r.best_action);
      arena.advance_root(r.best_action);
      search->set_reuse_next(true);
    }
  };
  std::vector<SearchResult> a, b;
  play(a);
  play(b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].best_action, b[i].best_action) << "move " << i;
    EXPECT_EQ(a[i].action_prior, b[i].action_prior) << "move " << i;
  }
  // Moves after the first actually reused a subtree.
  EXPECT_GT(a[1].metrics.reused_nodes, 0u);
  EXPECT_GT(a[1].metrics.reused_visits, 0);
}

TEST(TreeReuse, FewerExpansionsThanFreshTreeAtEqualBudget) {
  // Equal per-move playout target (root visit mass): the reuse engine
  // credits the carried subtree's visits against the budget, so it runs
  // measurably fewer expansions per move than the fresh-tree engine while
  // ending at the same root visit total.
  Gomoku g(5, 4);
  // Value-bearing evaluator + low exploration so visits concentrate on the
  // principal variation — the subtree a real (trained-net) search carries.
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  MctsConfig cfg = quick_config(300);
  cfg.c_puct = 1.0f;

  // Fixed trajectory so both engines search identical positions.
  std::vector<int> trajectory;
  {
    auto scout = make_serial(cfg, eval);
    auto env = g.clone();
    for (int move = 0; move < 4; ++move) {
      const SearchResult r = scout->search(*env);
      trajectory.push_back(r.best_action);
      env->apply(r.best_action);
    }
  }

  auto run = [&](bool reuse) {
    EngineConfig ec;
    ec.mcts = cfg;
    ec.scheme = Scheme::kSerial;
    ec.workers = 1;
    ec.reuse_tree = reuse;
    ec.adapt = false;
    SearchEngine engine(ec, {.evaluator = &eval});
    auto env = g.clone();
    std::size_t expansions = 0;
    for (const int action : trajectory) {
      const SearchResult r = engine.search(*env);
      expansions += r.metrics.expansions;
      env->apply(action);
      engine.advance(action);
    }
    return expansions;
  };

  const std::size_t fresh = run(false);
  const std::size_t reused = run(true);
  EXPECT_LT(reused, fresh);
  // The saving is the reused visit mass, minus terminal rollouts — demand a
  // real margin, not an off-by-one.
  EXPECT_LT(reused, fresh - fresh / 10);
}

TEST(TreeReuse, SharedArenaSurvivesSchemeSwitch) {
  // A scheme switch hands the reused tree to the new driver: search with
  // local-tree, advance, then search the next position with shared-tree
  // over the same arena — the second search starts from the kept subtree.
  Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  SearchTree arena;
  MctsConfig cfg = quick_config(240);

  LocalTreeMcts local(cfg, 2, eval, &arena);
  auto env = g.clone();
  const SearchResult r1 = local.search(*env);
  env->apply(r1.best_action);
  ASSERT_TRUE(arena.advance_root(r1.best_action));
  const std::int64_t carried = arena.root_visit_total();
  ASSERT_GT(carried, 0);

  SharedTreeMcts shared(cfg, 2, eval, &arena);
  shared.set_reuse_next(true);
  const SearchResult r2 = shared.search(*env);
  EXPECT_EQ(r2.metrics.reused_visits, carried);
  EXPECT_GT(r2.metrics.reused_nodes, 0u);
  // Visit conservation still holds on the merged tree.
  float mass = 0.0f;
  for (float p : r2.action_prior) mass += p;
  EXPECT_NEAR(mass, 1.0f, 1e-4f);
}

// --- serial search, pinned ----------------------------------------------------

// FNV-1a over the exact bit patterns of an action prior.
std::uint64_t prior_digest(const std::vector<float>& prior) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const float p : prior) {
    h ^= std::bit_cast<std::uint32_t>(p);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct PinnedMove {
  int best_action;
  std::uint64_t digest;
};

// Three moves of serial search on Gomoku 5x5 with tree reuse and root noise
// over `res`, as (best action, prior digest) per move.
std::vector<PinnedMove> serial_reuse_trace(const SearchResources& res) {
  MctsConfig cfg = quick_config(200);
  cfg.root_noise = true;
  SearchTree arena;
  auto search = make_search(Scheme::kSerial, cfg, 1, res, &arena);
  auto env = Gomoku(5, 4).clone();
  std::vector<PinnedMove> trace;
  for (int move = 0; move < 3; ++move) {
    const SearchResult r = search->search(*env);
    trace.push_back({r.best_action, prior_digest(r.action_prior)});
    env->apply(r.best_action);
    arena.advance_root(r.best_action);
    search->set_reuse_next(true);
  }
  return trace;
}

// Any change to serial play (rollout order, root noise, tree reuse, the TT
// graft or the queue path) changes a digest here. The values predate
// serial search running as the shared-tree driver at N=1. A TT graft and
// the queue path reproduce a plain evaluator bit for bit, so every trace
// below must read the same.
const std::vector<PinnedMove> kPinnedSerialTrace = {
    {2, 0x4cb6a342c933d459ULL},
    {14, 0xdb60db2e80376ddcULL},
    {20, 0xe08949aec6560b7fULL}};

void expect_trace(const std::vector<PinnedMove>& got,
                  const std::vector<PinnedMove>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].best_action, want[i].best_action) << "move " << i;
    EXPECT_EQ(got[i].digest, want[i].digest) << "move " << i;
  }
}

TEST(SerialSearch, PinnedReuseTraceOverEvaluator) {
  const Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  expect_trace(serial_reuse_trace({.evaluator = &eval}), kPinnedSerialTrace);
}

TEST(SerialSearch, PinnedReuseTraceOverTaggedQueueWithCacheAndTt) {
  const Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  CpuBackend backend(eval);
  EvalCache cache;
  AsyncBatchEvaluator queue(backend, /*batch_threshold=*/1, /*streams=*/1);
  queue.set_cache(&cache);
  TtConfig tt_cfg;
  tt_cfg.enabled = true;
  TranspositionTable tt(tt_cfg);
  const SearchResources res{.batch = &queue, .batch_tag = 0, .tt = &tt};
  expect_trace(serial_reuse_trace(res), kPinnedSerialTrace);
  // Replayed over the now-warm table and cache: leaves graft instead of
  // evaluating, the root is a cache hit, and play is unchanged.
  const std::size_t slots = queue.stats().tag_slots.at(0);
  EXPECT_GT(slots, 0u);
  expect_trace(serial_reuse_trace(res), kPinnedSerialTrace);
  EXPECT_GT(tt.stats().hits, 0u);
  EXPECT_GT(queue.stats().cache_hits, 0u);
  EXPECT_LT(queue.stats().tag_slots.at(0), 2 * slots);
}

// Each thread that evaluates through a ThreadRecordingEvaluator takes an
// ordinal from one process-wide counter, so a new thread counts as new even
// when it inherits a joined thread's std::thread::id (glibc reuses them).
// tags_exited counts the tagged threads that have ended: a thread's
// thread_local tag is destroyed before its join() returns.
std::atomic<int> tags_issued{0};
std::atomic<int> tags_exited{0};

struct ThreadTag {
  const int ordinal = tags_issued.fetch_add(1);
  ~ThreadTag() { tags_exited.fetch_add(1); }
};

// Records every thread evaluate() runs on, with its call count.
class ThreadRecordingEvaluator final : public Evaluator {
 public:
  explicit ThreadRecordingEvaluator(Evaluator& inner) : inner_(inner) {}
  int action_count() const override { return inner_.action_count(); }
  std::size_t input_size() const override { return inner_.input_size(); }
  void evaluate(const float* input, EvalOutput& out) override {
    thread_local ThreadTag tag;
    {
      std::lock_guard lock(mu_);
      ++calls_[std::this_thread::get_id()];
      ordinals_.insert(tag.ordinal);
    }
    inner_.evaluate(input, out);
  }
  std::set<std::thread::id> threads() const {
    std::lock_guard lock(mu_);
    std::set<std::thread::id> ids;
    for (const auto& [id, n] : calls_) ids.insert(id);
    return ids;
  }
  std::map<std::thread::id, int> calls() const {
    std::lock_guard lock(mu_);
    return calls_;
  }
  // The ordinals of the threads that evaluated: unlike threads(), this
  // grows when a joined thread is replaced by a new one.
  std::set<int> ordinals() const {
    std::lock_guard lock(mu_);
    return ordinals_;
  }

 private:
  Evaluator& inner_;
  mutable std::mutex mu_;
  std::map<std::thread::id, int> calls_;
  std::set<int> ordinals_;
};

TEST(SerialSearch, EvaluatesOnlyOnTheCallingThread) {
  const Gomoku g(5, 4);
  SyntheticEvaluator inner(g.action_count(), g.encode_size());
  ThreadRecordingEvaluator eval(inner);
  auto search = make_serial(quick_config(100), eval);
  const SearchResult r = search->search(g);
  EXPECT_EQ(eval.threads(), std::set{std::this_thread::get_id()});
  EXPECT_EQ(search->scheme(), Scheme::kSerial);
  EXPECT_EQ(r.metrics.workers, 1);

  // Over a tagged threshold-1 queue each request, the root's included,
  // completes its own batch, so the search runs it on the calling thread
  // and the queue's stream thread never computes.
  ThreadRecordingEvaluator queued(inner);
  CpuBackend backend(queued);
  AsyncBatchEvaluator queue(backend, /*batch_threshold=*/1, /*streams=*/1);
  auto over_queue = make_search(Scheme::kSerial, quick_config(100), 1,
                                {.batch = &queue, .batch_tag = 0});
  const SearchResult rq = over_queue->search(g);
  EXPECT_EQ(queued.threads(), std::set{std::this_thread::get_id()});
  EXPECT_EQ(queue.stats().tag_slots.at(0), rq.metrics.eval_requests + 1);
  EXPECT_EQ(rq.action_prior, r.action_prior);
}

// The thread model over a bare evaluator: the calling thread evaluates the
// root, Algorithm 3's master hands every leaf to N evaluation threads, and
// Algorithm 2's N workers each evaluate on their own thread.
TEST(ThreadModel, LocalTreeRunsTheRootOnTheCallerAndLeavesOnNOthers) {
  const Gomoku g(5, 4);
  SyntheticEvaluator inner(g.action_count(), g.encode_size());
  ThreadRecordingEvaluator eval(inner);
  LocalTreeMcts search(quick_config(200), 4, eval);
  search.search(g);
  std::map<std::thread::id, int> calls = eval.calls();
  EXPECT_EQ(calls[std::this_thread::get_id()], 1);  // the root only
  EXPECT_LE(calls.size(), 5u);
}

TEST(ThreadModel, SharedTreeEvaluatesOnAtMostNThreadsTheCallerAmongThem) {
  const Gomoku g(5, 4);
  SyntheticEvaluator inner(g.action_count(), g.encode_size());
  ThreadRecordingEvaluator eval(inner);
  SharedTreeMcts search(quick_config(200), 4, eval);
  search.search(g);
  const std::set<std::thread::id> threads = eval.threads();
  EXPECT_TRUE(threads.contains(std::this_thread::get_id()));
  EXPECT_LE(threads.size(), 4u);
}

TEST(ThreadModel, LeafParallelEvaluatesDuplicatesOffTheCallingThread) {
  const Gomoku g(5, 4);
  SyntheticEvaluator inner(g.action_count(), g.encode_size());
  ThreadRecordingEvaluator eval(inner);
  auto search = make_search(Scheme::kLeafParallel, quick_config(120), 3,
                            {.evaluator = &eval});
  search->search(g);
  std::map<std::thread::id, int> calls = eval.calls();
  EXPECT_EQ(calls[std::this_thread::get_id()], 1);  // the root only
  EXPECT_GT(calls.size(), 1u);
  EXPECT_LE(calls.size(), 4u);
}

// Live threads of this process (Linux: /proc/self/status), -1 elsewhere.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int n = -1;
      status >> n;
      return n;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return -1;
}

// The SharedTree crew: N−1 helpers started by the first parallel search,
// parked between moves and joined by the destructor. A 20 µs evaluation
// keeps every worker busy long enough to take playouts on every move.
TEST(SharedTreeCrew, ReusesItsHelpersAcrossSearches) {
  const Gomoku g(5, 4);
  SyntheticEvaluator inner(g.action_count(), g.encode_size(),
                           /*latency_us=*/20.0);
  ThreadRecordingEvaluator eval(inner);
  const int exited_before = tags_exited.load();
  {
    SharedTreeMcts search(quick_config(200), 4, eval);
    for (int move = 0; move < 3; ++move) {
      const SearchResult r = search.search(g);
      EXPECT_EQ(r.metrics.playouts, 200);
    }
    // Three moves evaluated on the same four threads, none of which exited.
    EXPECT_LE(eval.ordinals().size(), 4u);
    EXPECT_GT(eval.ordinals().size(), 1u);
    EXPECT_EQ(tags_exited.load(), exited_before);
  }
  // Destroying the driver joined every helper; the calling thread remains.
  EXPECT_EQ(tags_exited.load() - exited_before,
            static_cast<int>(eval.ordinals().size()) - 1);
}

TEST(SharedTreeCrew, StartsOnTheFirstParallelSearchAndJoinsOnDestruction) {
  const int base = process_threads();
  if (base < 0) GTEST_SKIP() << "no /proc/self/status on this platform";
  const Gomoku g(5, 4);
  SyntheticEvaluator eval(g.action_count(), g.encode_size());
  {
    auto serial = make_search(Scheme::kSerial, quick_config(50), 1,
                              {.evaluator = &eval});
    serial->search(g);
    EXPECT_EQ(process_threads(), base);  // a serial search starts no thread
  }
  {
    SharedTreeMcts search(quick_config(50), 4, eval);
    EXPECT_EQ(process_threads(), base);  // no thread before the first move
    search.search(g);
    EXPECT_EQ(process_threads(), base + 3);
    search.search(g);
    EXPECT_EQ(process_threads(), base + 3);  // parked, not respawned
  }
  EXPECT_EQ(process_threads(), base);  // the destructor joined the crew
}

TEST(RootNoise, ChangesExplorationButKeepsDistribution) {
  Gomoku g(5, 4);
  UniformEvaluator eval(g.action_count(), g.encode_size());
  MctsConfig with_noise = quick_config(200);
  with_noise.root_noise = true;
  with_noise.noise_fraction = 0.5f;
  const SearchResult r = make_serial(with_noise, eval)->search(g);
  float mass = 0;
  for (float p : r.action_prior) mass += p;
  EXPECT_NEAR(mass, 1.0f, 1e-4f);
}

}  // namespace
}  // namespace apm
