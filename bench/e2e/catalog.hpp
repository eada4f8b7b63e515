#pragma once
// The metric catalogue: every end-to-end and per-layer metric the benchmark
// reports, with its unit and direction, plus the layer -> end-to-end map
// (which end-to-end number a layer metric should move, and on which
// workload). BENCHMARK.json lists the same names; selftest.cpp fails when
// the two drift apart. Report values are added by name only, so a unit can
// never disagree with its catalogue entry.

#include <stdexcept>
#include <string>
#include <vector>

#include "report.hpp"

namespace e2e {

struct MetricDef {
  std::string name;
  std::string unit;
  Tier tier = Tier::kLayer;
  bool higher_is_better = false;
};

inline const std::vector<MetricDef>& catalog() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d;
    const auto e2e = [&d](const char* n, const char* u, bool higher) {
      d.push_back({n, u, Tier::kEndToEnd, higher});
    };
    const auto layer = [&d](std::string n, const char* u, bool higher) {
      d.push_back({std::move(n), u, Tier::kLayer, higher});
    };
    e2e("moves_per_s", "moves/s", true);
    e2e("playouts_per_s", "playouts/s", true);
    e2e("move_ms_p50", "ms", false);
    e2e("move_ms_p95", "ms", false);
    e2e("setup_s", "s", false);
    e2e("peak_rss_mb", "MB", false);

    layer("nn.forward_us_per_eval", "us", false);
    // The net's layers in forward order (policy head, then value head).
    for (const std::string l : {"conv1", "conv2", "conv3", "conv_p", "fc_p",
                                "conv_v", "fc_v1", "fc_v2"}) {
      layer("nn." + l + ".us", "us", false);
      layer("nn." + l + ".gflops", "GFLOP/s", true);
      if (l.rfind("conv", 0) == 0) {
        layer("nn." + l + ".im2col_us", "us", false);
        layer("nn." + l + ".gemm_us", "us", false);
      }
    }
    layer("nn.layer_closure", "ratio", true);

    layer("backend.calls", "count", false);
    layer("backend.busy_s", "s", false);
    layer("backend.busy_frac", "frac", false);
    layer("backend.us_per_eval", "us", false);
    layer("backend.closure", "ratio", true);

    layer("eval.requests", "count", false);
    layer("eval.cache_hit_rate", "frac", true);
    layer("eval.coalesced", "count", true);
    layer("eval.batches", "count", false);
    layer("eval.mean_fill", "evals/batch", true);
    layer("eval.stale_flush_share", "frac", false);
    layer("eval.threshold_final", "evals", false);
    layer("eval.batch_wait_us_p50", "us", false);
    layer("eval.batch_wait_us_p95", "us", false);
    layer("eval.request_us_p50", "us", false);
    layer("eval.request_us_p95", "us", false);
    layer("eval.request_overhead_us", "us", false);

    layer("mcts.playouts", "count", true);
    layer("mcts.select_s", "s", false);
    layer("mcts.expand_s", "s", false);
    layer("mcts.backup_s", "s", false);
    layer("mcts.eval_wait_s", "s", false);
    layer("mcts.in_tree_us_per_playout", "us", false);
    layer("mcts.expansions", "count", false);
    layer("mcts.tt_graft_rate", "frac", true);
    layer("mcts.tt_pending", "count", false);
    layer("mcts.reused_visit_frac", "frac", true);
    layer("mcts.mean_depth", "nodes", false);
    layer("mcts.scheme_switches", "count", false);
    layer("mcts.share.serial", "frac", false);
    layer("mcts.share.shared_tree", "frac", false);
    layer("mcts.share.local_tree", "frac", false);
    layer("mcts.workers_mean", "workers", true);
    layer("mcts.phase_closure", "ratio", true);

    layer("perfmodel.eq36_residual_p50", "frac", false);

    layer("serve.games_attempted", "count", true);
    layer("serve.games_completed", "count", true);
    layer("serve.moves", "count", true);
    layer("serve.threshold_retunes", "count", false);
    layer("serve.worker_occupancy", "frac", true);

    layer("trace_overhead_frac", "frac", false);
    return d;
  }();
  return defs;
}

inline const MetricDef& metric_def(const std::string& name) {
  for (const MetricDef& m : catalog()) {
    if (m.name == name) return m;
  }
  throw std::invalid_argument("metric not in catalogue: " + name);
}

// Adds a catalogued metric; its unit and tier come from the catalogue.
inline void add_metric(Report& r, const std::string& name, double value) {
  const MetricDef& m = metric_def(name);
  r.add(name, value, m.unit, m.tier);
}

// Which end-to-end metric each layer should move, and where (the prefix
// matches every metric of the layer).
struct LayerLink {
  const char* prefix;
  const char* moves;
  const char* on;
};

inline const std::vector<LayerLink>& layer_map() {
  static const std::vector<LayerLink> links = {
      {"nn.", "moves_per_s, move_ms_p50",
       "selfplay_gomoku9 and the int8 lane of zoo_mixed; ~0 on "
       "analysis_connect4"},
      {"backend.", "moves_per_s", "selfplay_gomoku9, zoo_mixed"},
      {"eval.", "move_ms_p50, move_ms_p95",
       "analysis_connect4 (per-request overhead), zoo_mixed (tails)"},
      {"mcts.", "move_ms_p50, playouts_per_s",
       "analysis_connect4; predicted no change on selfplay_gomoku9"},
      {"perfmodel.", "(diagnostic)", "analysis_connect4"},
      {"serve.", "moves_per_s, move_ms_p95", "zoo_mixed"},
      {"trace_overhead_frac", "(diagnostic: tracing cost)", "every workload"},
  };
  return links;
}

// Closure checks of the traced run: |ratio - 1| must stay within the
// tolerance, or the run fails.
struct ClosureCheck {
  const char* metric;
  double tolerance;
};

inline const std::vector<ClosureCheck>& closure_checks() {
  static const std::vector<ClosureCheck> checks = {
      {"mcts.phase_closure", 0.10},
      {"backend.closure", 0.10},
      {"nn.layer_closure", 0.10},
  };
  return checks;
}

}  // namespace e2e
