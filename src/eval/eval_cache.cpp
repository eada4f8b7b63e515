#include "eval/eval_cache.hpp"

#include <algorithm>
#include <bit>
#include <mutex>

#include "obs/trace.hpp"
#include "support/check.hpp"

namespace apm {
namespace {

std::size_t ceil_pow2(std::size_t n) {
  return std::bit_ceil(n == 0 ? std::size_t{1} : n);
}

}  // namespace

EvalCache::EvalCache(EvalCacheConfig cfg) {
  APM_CHECK(cfg.shards >= 1);
  APM_CHECK(cfg.ways >= 1);
  APM_CHECK(cfg.capacity >= 1);
  const std::size_t shards = ceil_pow2(static_cast<std::size_t>(cfg.shards));
  ways_ = static_cast<std::size_t>(cfg.ways);
  const std::size_t per_shard =
      (cfg.capacity + shards * ways_ - 1) / (shards * ways_);
  sets_ = ceil_pow2(per_shard);
  shard_bits_ = std::countr_zero(shards);
  capacity_ = shards * sets_ * ways_;
  shards_ = std::vector<Shard>(shards);
  for (Shard& s : shards_) {
    s.entries.resize(sets_ * ways_);
    s.hands.assign(sets_, 0);
  }
}

bool EvalCache::lookup(std::uint64_t key, EvalOutput& out, bool count) {
  Shard& s = shard_for(key);
  const std::size_t base = set_base(key);
  std::lock_guard guard(s.lock);
  if (count) ++s.lookups;
  for (std::size_t w = 0; w < ways_; ++w) {
    Entry& e = s.entries[base + w];
    if (e.valid && e.key == key) {  // full 64-bit match, never a placement alias
      e.referenced = 1;
      const float* policy = s.policies.data() + (base + w) * s.width;
      out.policy.assign(policy, policy + s.width);
      out.value = e.value;
      if (count) ++s.hits;
      return true;
    }
  }
  return false;
}

void EvalCache::insert(std::uint64_t key, const EvalOutput& out) {
  Shard& s = shard_for(key);
  const std::size_t base = set_base(key);
  const std::size_t set = base / ways_;
  std::lock_guard guard(s.lock);
  if (s.inserts == 0) {  // the shard's first insert sizes its slab
    s.width = out.policy.size();
    s.policies.resize(s.entries.size() * s.width);
  }
  APM_CHECK_MSG(out.policy.size() == s.width,
                "EvalCache policies must all have one width");
  const auto store = [&](std::size_t slot) {
    Entry& e = s.entries[slot];
    e.value = out.value;
    e.referenced = 1;
    std::copy(out.policy.begin(), out.policy.end(),
              s.policies.begin() + static_cast<std::ptrdiff_t>(slot * s.width));
  };
  ++s.inserts;
  // Refresh a resident key in place (a racing duplicate primary, or a
  // re-insert after clear() raced a lookup).
  for (std::size_t w = 0; w < ways_; ++w) {
    Entry& e = s.entries[base + w];
    if (e.valid && e.key == key) {
      store(base + w);
      return;
    }
  }
  // CLOCK sweep from the set's hand: first unreferenced entry is the
  // victim; referenced entries spend their second chance. After one full
  // revolution every bit is clear, so the sweep terminates at the hand.
  std::uint8_t& hand = s.hands[set];
  std::size_t victim = hand;
  for (std::size_t step = 0; step <= ways_; ++step) {
    Entry& e = s.entries[base + victim];
    if (!e.valid || e.referenced == 0 || step == ways_) break;
    e.referenced = 0;
    victim = (victim + 1) % ways_;
  }
  Entry& e = s.entries[base + victim];
  if (e.valid) {
    ++s.evictions;
  } else {
    ++s.live;
  }
  e.key = key;
  e.valid = true;
  store(base + victim);
  hand = static_cast<std::uint8_t>((victim + 1) % ways_);
}

void EvalCache::clear() {
  std::size_t dropped = 0;
  for (Shard& s : shards_) {
    std::lock_guard guard(s.lock);
    dropped += s.live;
    for (Entry& e : s.entries) {
      e.valid = false;
      e.referenced = 0;
    }
    for (std::uint8_t& h : s.hands) h = 0;
    s.live = 0;
  }
  // Invalidation marker in the trace timeline (model swap / trainer lane
  // invalidation shows up as a hit-rate cliff right after this instant).
  obs::emit_instant("cache_clear", "eval", {{"dropped", dropped}});
}

CacheStats EvalCache::stats() const {
  CacheStats out;
  out.capacity = capacity_;
  for (const Shard& s : shards_) {
    std::lock_guard guard(s.lock);
    out.lookups += s.lookups;
    out.hits += s.hits;
    out.inserts += s.inserts;
    out.evictions += s.evictions;
    out.entries += s.live;
  }
  out.misses = out.lookups - out.hits;
  return out;
}

}  // namespace apm
