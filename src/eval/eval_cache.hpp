#pragma once
// Sharded cross-game evaluation cache — the transposition table in front of
// the shared accelerator queue (Batch MCTS, Cazenave 2021: "a transposition
// table storing the result of the evaluation of a state by the neural
// network" is the key structure for batched-inference MCTS).
//
// Concurrent self-play games revisit the same openings and transpositions
// constantly, so a large fraction of the MatchService's inference demand is
// duplicate work. This cache sits in front of the AsyncBatchEvaluator and
// is keyed by Game::eval_key() — the 64-bit incremental Zobrist position
// hash extended with everything else encode() depends on (for Connect4/
// Gomoku, the last-move plane). Keying on hash() alone would alias
// transpositions whose NN inputs differ. Under that key, a position
// reached by any game — or by the same game via a different move order
// ending on the same move — is evaluated by the backend exactly once while
// it stays resident.
//
// Design:
//
//  * Sharding / lock striping. The key space is split across S shards
//    (S a power of two, selected by the low key bits); each shard is
//    guarded by its own 1-byte SpinLock, so concurrent submitters from K
//    games hit disjoint locks with probability (S-1)/S and the cache never
//    serialises the hot submit path through one mutex. Per-shard counters
//    (lookups/hits/inserts/evictions) are mutated under the shard lock and
//    aggregated on demand into a CacheStats snapshot.
//
//  * Set-associative placement, CLOCK eviction. Each shard is an array of
//    fixed sets of `ways` entries (the next key bits select the set), so
//    capacity is fixed up front — no rehashing, and no allocation after a
//    shard's first insert. Each
//    set runs a CLOCK (second-chance) sweep: a hit sets the entry's
//    reference bit; the victim scan starts at the set's rotating hand and
//    takes the first entry with a clear bit, clearing bits as it passes —
//    an LRU approximation whose state is one bit per entry and one hand
//    per set, cheap enough to sit under a spinlock.
//
//  * Entry layout. An Entry is 16 bytes: {key, value, valid, referenced}.
//    Each shard keeps its entries' policies in one float slab, row e
//    belonging to entry e, sized on the shard's first insert from that
//    insert's policy width (one cache serves one model, so every policy
//    has the same width; a later insert of another width fails a check).
//    A lookup assigns the policy from the slab. This replaced a 48-byte
//    entry holding its EvalOutput, whose policy vector was a heap chunk of
//    its own (48 B for Connect4's 7 floats, 336 B for Gomoku 9x9's 81).
//
//  * Full-key verification. Set and shard indices use only a fraction of
//    the key bits, so every entry stores the complete 64-bit key and a
//    lookup compares it in full — two positions that collide in placement
//    never alias each other's results. (Two positions with the *same*
//    64-bit Zobrist hash are indistinguishable, as in any transposition
//    table; with random tables the chance is ~n²/2⁶⁴.)
//
//  * Coalescing protocol (implemented by AsyncBatchEvaluator, keyed by the
//    same hashes): a submission that misses the cache but matches a request
//    already forming or dispatched does not occupy a second batch slot — it
//    attaches as a *waiter* to the in-flight request and is completed from
//    that request's result, which is also inserted here. The insert happens
//    before the in-flight entry is retired (both under the queue lock), so
//    a racing submitter observes the position either in-flight or resident,
//    never neither. Waiters do not appear in the batch-fill histogram: the
//    histogram counts slots, and the point of coalescing is that the slots
//    a batch does contain are unique positions.
//
// Results served from the cache are the stored EvalOutput copies —
// bitwise identical to what the backend returned for the first evaluation
// of that position (batched inference in this repo is per-position
// deterministic regardless of batch composition, which is also what makes
// MatchService results worker-count independent).
//
// clear() invalidates every entry OF THIS CACHE. Scope matters in the
// multi-model serving plane (serve/evaluator_pool.hpp): one EvalCache
// serves exactly one named model, so "this cache" == "this model's
// results", and invalidation is per-model by construction — the Trainer
// clears only the cache of the model whose weights its SGD step rewrote
// (EvaluatorPool::invalidate(id) / MatchService::invalidate_model(id)),
// and every other model's residency and hit rate survive the foreign
// update. Do NOT share one EvalCache instance between models: clear() has
// no finer grain, and even with disjoint key spaces (per-game Zobrist
// table seeds) a shared instance would couple their invalidation.

#include <cstdint>
#include <memory>
#include <vector>

#include "eval/evaluator.hpp"
#include "support/spinlock.hpp"

namespace apm {

// Aggregated snapshot of the per-shard counters.
struct CacheStats {
  std::size_t lookups = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t inserts = 0;    // includes refreshes of a resident key
  std::size_t evictions = 0;  // valid entries displaced by an insert
  std::size_t entries = 0;    // currently resident
  std::size_t capacity = 0;   // fixed entry capacity (shards × sets × ways)

  double hit_rate() const {
    return lookups > 0 ? static_cast<double>(hits) /
                             static_cast<double>(lookups)
                       : 0.0;
  }
};

struct EvalCacheConfig {
  // Total entry budget; rounded up so each shard holds a power-of-two
  // number of `ways`-wide sets.
  std::size_t capacity = 1 << 14;
  int shards = 8;  // power of two
  int ways = 4;    // set associativity (>= 1)
};

class EvalCache {
 public:
  explicit EvalCache(EvalCacheConfig cfg = {});

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  // Copies the stored result into `out` on a full-key match (and marks the
  // entry recently used). Returns false on miss. `count` = false performs
  // an uncounted probe: the CLOCK reference bit is still set on a hit, but
  // the lookup/hit counters are untouched — used by the queue's under-lock
  // double-check so each request contributes exactly one counted lookup
  // and CacheStats::hit_rate() stays comparable to the request-level rates.
  bool lookup(std::uint64_t key, EvalOutput& out, bool count = true);

  // Inserts (or refreshes) `key`'s result, evicting a CLOCK victim from the
  // key's set when it is full.
  void insert(std::uint64_t key, const EvalOutput& out);

  // Invalidates every entry (weights changed). Counters survive.
  void clear();

  CacheStats stats() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::uint64_t key = 0;
    float value = 0.0f;
    bool valid = false;
    std::uint8_t referenced = 0;  // CLOCK second-chance bit
  };

  // Cache-line aligned so two shards' locks/counters never share a line.
  struct alignas(64) Shard {
    mutable SpinLock lock;
    std::vector<Entry> entries;       // sets_ × ways_, set-major
    std::vector<float> policies;      // entries.size() × width, row-major
    std::size_t width = 0;            // policy width; set by the 1st insert
    std::vector<std::uint8_t> hands;  // per-set CLOCK hand
    std::size_t lookups = 0;
    std::size_t hits = 0;
    std::size_t inserts = 0;
    std::size_t evictions = 0;
    std::size_t live = 0;
  };

  Shard& shard_for(std::uint64_t key) {
    return shards_[key & (shards_.size() - 1)];
  }
  const Shard& shard_for(std::uint64_t key) const {
    return shards_[key & (shards_.size() - 1)];
  }
  std::size_t set_base(std::uint64_t key) const {
    // Shard selection consumed the low bits; the next bits pick the set.
    return ((key >> shard_bits_) & (sets_ - 1)) * ways_;
  }

  std::size_t ways_ = 0;
  std::size_t sets_ = 0;  // per shard, power of two
  int shard_bits_ = 0;
  std::size_t capacity_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace apm
