// Ablation — virtual-loss weight (a design choice DESIGN.md §5 calls out).
//
// Virtual-loss constant VL ∈ {0, 1, 3, 10}: with VL=0 concurrent workers
// pile onto the same path (expansion collisions / identical leaf
// evaluations); growing VL spreads them out. Measured by move time and the
// root visit entropy after a fixed playout budget. The lock-discipline
// ablation (per-node locks vs one coarse tree lock) ran here until its
// verdict was recorded in mcts/shared_tree.hpp.

#include <cmath>
#include <cstdio>
#include <thread>

#include "eval/evaluator.hpp"
#include "games/gomoku.hpp"
#include "mcts/shared_tree.hpp"
#include "support/table.hpp"

using namespace apm;

namespace {

// Synthetic evaluator that *sleeps* instead of busy-waiting, so that on a
// single-core host concurrent evaluations genuinely overlap and the
// virtual-loss effect on selection is observable.
class SleepingEvaluator final : public Evaluator {
 public:
  SleepingEvaluator(int actions, std::size_t input_size, double latency_us)
      : inner_(actions, input_size, 0.0), latency_us_(latency_us) {}

  int action_count() const override { return inner_.action_count(); }
  std::size_t input_size() const override { return inner_.input_size(); }
  void evaluate(const float* input, EvalOutput& out) override {
    inner_.evaluate(input, out);
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        static_cast<std::int64_t>(latency_us_ * 1e3)));
  }

 private:
  SyntheticEvaluator inner_;
  double latency_us_;
};

}  // namespace

int main() {
  std::printf("=== Ablation: virtual loss ===\n");
  Gomoku game(9, 5);

  {
    // Virtual loss is what creates parallelism in the shared tree (§2.1):
    // with VL=0, concurrent workers select the same UCT-optimal leaf and
    // serialise on its expansion (collision waits); VL>0 spreads them onto
    // different paths whose evaluations genuinely overlap. Observable even
    // on one core with a sleeping evaluator: move time collapses once VL
    // diversifies the selections.
    Table table({"virtual loss", "move time (ms)", "root entropy (nats)"});
    for (float vl : {0.0f, 1.0f, 3.0f, 10.0f}) {
      SleepingEvaluator eval(game.action_count(), game.encode_size(),
                             /*latency_us=*/300.0);
      MctsConfig cfg;
      cfg.num_playouts = 400;
      cfg.virtual_loss = vl;
      SharedTreeMcts search(cfg, 8, eval);
      const SearchResult r = search.search(game);
      double entropy = 0.0;
      for (float p : r.action_prior) {
        if (p > 0.0f) entropy -= p * std::log(p);
      }
      table.add_row({Table::fmt(vl, 1),
                     Table::fmt(r.metrics.move_seconds * 1e3, 1),
                     Table::fmt(entropy, 3)});
    }
    table.print("virtual-loss weight sensitivity (8 workers)");
    std::printf(
        "observed: with the wait-style collision handling used here, "
        "workers pipeline\ndown a shared path even at VL=0, so move time "
        "and root statistics are largely\nVL-insensitive — consistent with "
        "§5.5's finding that parallel settings do not\ndegrade decision "
        "quality. VL primarily shapes *which* leaves evaluate "
        "concurrently.\n");
  }
  return 0;
}
