// Tests for the prefix-cache subsystem (src/kvcache/ and its wiring):
// hand-computed hit/miss/evict accounting on the cache itself, pinned LRU
// eviction order, a differential test against the node-container reference
// model, end-to-end prefill-tokens-saved conservation against a cold run,
// cache-aware routing, same-seed bit-identical replay, spec round-trips
// with did-you-mean, and session-structured scenario traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/run.h"
#include "common/check.h"
#include "common/random.h"
#include "kvcache/prefix_cache.h"
#include "obs/trace.h"
#include "scenario/registry.h"
#include "scenario/scenario.h"
#include "scheduler/memory.h"

namespace vidur {
namespace {

// ------------------------------------------------- hand-computed fixture

/// A turn of a multi-turn conversation.
Request session_turn(RequestId id, std::int64_t session, int turn,
                     TokenCount prefill, TokenCount decode = 8) {
  Request r;
  r.id = id;
  r.session = session;
  r.turn = turn;
  r.prefill_tokens = prefill;
  r.decode_tokens = decode;
  return r;
}

/// A single-shot request carrying a shared system prompt.
Request shared_prefix_request(RequestId id, std::int64_t group,
                              TokenCount shared, TokenCount prefill) {
  Request r;
  r.id = id;
  r.prefix_group = group;
  r.shared_prefix_tokens = shared;
  r.prefill_tokens = prefill;
  r.decode_tokens = 8;
  return r;
}

TEST(PrefixCache, ExactHitMissAccountingAcrossTurns) {
  BlockManager bm(64, 16);
  PrefixCache cache(16, 16);

  // Turn 0: nothing resident -> miss.
  const Request r0 = session_turn(0, /*session=*/7, /*turn=*/0,
                                  /*prefill=*/64, /*decode=*/8);
  bool r0_pinned = false;
  EXPECT_EQ(cache.probe(r0), 0);
  EXPECT_EQ(cache.attach(r0, r0_pinned), 0);
  EXPECT_FALSE(r0_pinned);  // a miss pins nothing
  EXPECT_EQ(cache.stats().lookups, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  // Completion: the request's 72 KV tokens donate 4 whole blocks (64 of
  // 72 tokens); the fractional fifth block is not shareable.
  long r0_blocks = 0;
  ASSERT_TRUE(bm.grow_to(r0_blocks, 72));
  EXPECT_EQ(cache.retain(r0, /*kv_end=*/72, /*kv_cached=*/0, bm), 4);
  bm.transfer_to_cache(r0_blocks, 4);
  cache.unpin(r0, 0, r0_pinned);
  bm.release(r0_blocks);
  EXPECT_EQ(cache.resident_blocks(), 4);
  EXPECT_EQ(cache.resident_sessions(), 1);
  EXPECT_EQ(bm.cached_blocks(), 4);
  EXPECT_EQ(bm.used_blocks(), 4);  // retained KV still occupies the pool

  // Turn 1 replays the conversation: all 4 donated blocks match. The
  // match never covers the whole prompt (at least one token stays cold).
  const Request r1 = session_turn(1, 7, 1, /*prefill=*/88);
  bool r1_pinned = false;
  EXPECT_EQ(cache.probe(r1), 64);
  EXPECT_EQ(cache.attach(r1, r1_pinned), 64);
  EXPECT_TRUE(r1_pinned);
  EXPECT_EQ(cache.stats().lookups, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().tokens_saved, 64);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses,
            cache.stats().lookups);

  // While pinned nothing is evictable; after unpin only the chain's leaf
  // is (interior blocks stay until their children go).
  EXPECT_EQ(cache.evictable_blocks(), 0);
  cache.unpin(r1, 64, r1_pinned);
  EXPECT_FALSE(r1_pinned);
  EXPECT_EQ(cache.evictable_blocks(), 1);

  // A different session shares nothing.
  const Request other = session_turn(2, 8, 1, 88);
  EXPECT_EQ(cache.probe(other), 0);

  // The single-tenant slice carries the same exact numbers.
  ASSERT_EQ(cache.tenant_stats().size(), 1u);
  const PrefixCacheStats& t = cache.tenant_stats().at(0);
  EXPECT_EQ(t.lookups, 2u);
  EXPECT_EQ(t.hits, 1u);
  EXPECT_EQ(t.misses, 1u);
  EXPECT_EQ(t.tokens_saved, 64);
}

TEST(PrefixCache, SharedPrefixMatchesAcrossSessionsAndGroups) {
  BlockManager bm(64, 16);
  PrefixCache cache(16, 16);

  // Session 0 donates its whole context: 3 shared-prefix blocks (48
  // tokens of group 5) then 2 session-private blocks.
  Request r0 = session_turn(0, 0, 0, /*prefill=*/80);
  r0.shared_prefix_tokens = 48;
  r0.prefix_group = 5;
  long r0_blocks = 0;
  ASSERT_TRUE(bm.grow_to(r0_blocks, 80));
  EXPECT_EQ(cache.retain(r0, /*kv_end=*/80, /*kv_cached=*/0, bm), 5);
  bm.transfer_to_cache(r0_blocks, 5);
  bm.release(r0_blocks);

  // A different session of the same group reuses exactly the shared part.
  Request r1 = session_turn(1, 1, 0, /*prefill=*/64);
  r1.shared_prefix_tokens = 48;
  r1.prefix_group = 5;
  EXPECT_EQ(cache.probe(r1), 48);

  // So does a sessionless request of the group (system-prompt-only reuse).
  EXPECT_EQ(cache.probe(shared_prefix_request(2, 5, 48, 64)), 48);
  // A different prompt group shares nothing.
  EXPECT_EQ(cache.probe(shared_prefix_request(3, 6, 48, 64)), 0);
  // Plain sessionless requests have no shareable identity at all.
  Request plain;
  plain.id = 4;
  plain.prefill_tokens = 64;
  EXPECT_EQ(cache.probe(plain), 0);
}

TEST(PrefixCache, LruEvictionOrderIsDeterministicLeafFirst) {
  BlockManager bm(64, 16);
  PrefixCache cache(/*capacity_blocks=*/4, 16);

  // Three 2-block sessions into a 4-block pool. Insertion makes each
  // chain's leaf the evictable candidate; eviction is strictly
  // oldest-leaf-first, and an evicted leaf's parent re-enters the LRU at
  // the back (it only just became a leaf).
  for (std::int64_t s = 1; s <= 3; ++s) {
    const Request r = session_turn(/*id=*/s, /*session=*/s, 0,
                                   /*prefill=*/33);
    long blocks = 0;
    ASSERT_TRUE(bm.grow_to(blocks, 33));
    EXPECT_EQ(cache.retain(r, /*kv_end=*/32, /*kv_cached=*/0, bm), 2);
    bm.transfer_to_cache(blocks, 2);
    bm.release(blocks);
  }
  // Session 3's retain evicted session 1's leaf first, then session 2's.
  EXPECT_EQ(cache.stats().inserted_blocks, 6u);
  EXPECT_EQ(cache.stats().evicted_blocks, 2u);
  EXPECT_EQ(cache.resident_blocks(), 4);
  EXPECT_EQ(cache.resident_sessions(), 3);
  EXPECT_EQ(bm.cached_blocks(), 4);

  const auto resident_tokens = [&](std::int64_t session) {
    return cache.probe(session_turn(99, session, 1, 33));
  };
  EXPECT_EQ(resident_tokens(1), 16);  // trimmed to its first block
  EXPECT_EQ(resident_tokens(2), 16);
  EXPECT_EQ(resident_tokens(3), 32);  // the newest chain is whole

  // Reclaim drains everything, leaf before parent, and the BlockManager's
  // cached pool returns to zero.
  EXPECT_EQ(cache.reclaim(10, bm), 4);
  EXPECT_EQ(cache.stats().evicted_blocks, 6u);
  EXPECT_EQ(cache.resident_blocks(), 0);
  EXPECT_EQ(cache.resident_sessions(), 0);
  EXPECT_EQ(bm.cached_blocks(), 0);
  EXPECT_EQ(bm.used_blocks(), 0);
}

TEST(PrefixCache, PinnedBlocksSurviveReclaim) {
  BlockManager bm(64, 16);
  PrefixCache cache(16, 16);
  const Request r0 = session_turn(0, 7, 0, 64);
  long r0_blocks = 0;
  ASSERT_TRUE(bm.grow_to(r0_blocks, 64));
  bm.transfer_to_cache(r0_blocks, cache.retain(r0, 64, 0, bm));
  bm.release(r0_blocks);

  const Request r1 = session_turn(1, 7, 1, 80);
  bool pinned = false;
  EXPECT_EQ(cache.attach(r1, pinned), 64);  // pins all 4 blocks
  EXPECT_EQ(cache.reclaim(10, bm), 0);
  EXPECT_EQ(cache.resident_blocks(), 4);
  cache.unpin(r1, 64, pinned);
  EXPECT_EQ(cache.reclaim(10, bm), 4);
}

TEST(PrefixCache, SecondUnpinAfterOneAttachChangesNothing) {
  BlockManager bm(64, 16);
  PrefixCache cache(16, 16);
  const Request r0 = session_turn(0, 7, 0, 64);
  long r0_blocks = 0;
  ASSERT_TRUE(bm.grow_to(r0_blocks, 64));
  bm.transfer_to_cache(r0_blocks, cache.retain(r0, 64, 0, bm));
  bm.release(r0_blocks);

  // Two readers pin the same 4-block chain.
  const Request r1 = session_turn(1, 7, 1, 80);
  const Request r2 = session_turn(2, 7, 1, 80);
  bool r1_pinned = false, r2_pinned = false;
  ASSERT_EQ(cache.attach(r1, r1_pinned), 64);
  ASSERT_EQ(cache.attach(r2, r2_pinned), 64);
  EXPECT_THROW(cache.attach(r1, r1_pinned), Error);  // pins are held once
  cache.unpin(r1, 64, r1_pinned);
  // A replica failure leaves the cached prefix set on its requests, so a
  // request can be unpinned twice: the second must not take r2's pins.
  cache.unpin(r1, 64, r1_pinned);
  EXPECT_FALSE(r1_pinned);
  EXPECT_EQ(cache.evictable_blocks(), 0);
  EXPECT_EQ(cache.reclaim(10, bm), 0);
  cache.unpin(r2, 64, r2_pinned);
  EXPECT_EQ(cache.evictable_blocks(), 1);
  EXPECT_EQ(cache.reclaim(10, bm), 4);
  EXPECT_EQ(bm.used_blocks(), 0);
}

TEST(PrefixCache, RetainSkipsAlreadyResidentBlocks) {
  BlockManager bm(64, 16);
  PrefixCache cache(16, 16);
  const Request a = shared_prefix_request(0, 5, 64, 80);
  long a_blocks = 0;
  ASSERT_TRUE(bm.grow_to(a_blocks, 80));
  EXPECT_EQ(cache.retain(a, 80, 0, bm), 4);  // the 4 shared blocks
  bm.transfer_to_cache(a_blocks, 4);
  bm.release(a_blocks);

  // A second request of the same group re-donates the same prefix: no
  // new blocks, no double-counted insertions, its own KV fully released.
  const Request b = shared_prefix_request(1, 5, 64, 80);
  long b_blocks = 0;
  ASSERT_TRUE(bm.grow_to(b_blocks, 80));
  EXPECT_EQ(cache.retain(b, 80, 0, bm), 0);
  bm.release(b_blocks);
  EXPECT_EQ(cache.stats().inserted_blocks, 4u);
  EXPECT_EQ(cache.resident_blocks(), 4);
  EXPECT_EQ(bm.used_blocks(), 4);
}

// ------------------------------------ differential test against a model

/// The node-container implementation the flat cache replaced, kept as an
/// executable specification: blocks in a std::unordered_map keyed by
/// chain hash, the LRU as a std::map from sequence number to chain, pins
/// as chain lists and a per-session resident block count. Same hashing,
/// same eviction rule; PrefixCache must agree with it on every call.
class ReferencePrefixCache {
 public:
  ReferencePrefixCache(long capacity_blocks, TokenCount block_size)
      : capacity_blocks_(capacity_blocks), block_size_(block_size) {
    VIDUR_CHECK(capacity_blocks >= 0);
    VIDUR_CHECK(block_size > 0);
  }

  TokenCount probe(const Request& request) const {
    return match_blocks(request, nullptr) * block_size_;
  }

  TokenCount attach(const Request& request) {
    std::vector<std::uint64_t> matched;
    const TokenCount tokens = match_blocks(request, &matched) * block_size_;
    PrefixCacheStats& tenant = tenant_stats_[request.tenant];
    ++stats_.lookups;
    ++tenant.lookups;
    if (matched.empty()) {
      ++stats_.misses;
      ++tenant.misses;
      return 0;
    }
    ++stats_.hits;
    ++tenant.hits;
    stats_.tokens_saved += tokens;
    tenant.tokens_saved += tokens;
    for (const std::uint64_t c : matched) {
      Block& block = blocks_.at(c);
      if (block.refs == 0 && block.children == 0)
        evictable_.erase(block.lru_seq);
      ++block.refs;
    }
    pins_[request.id] = std::move(matched);
    return tokens;
  }

  void unpin(RequestId request) {
    auto it = pins_.find(request);
    if (it == pins_.end()) return;
    for (const std::uint64_t c : it->second) {
      auto bit = blocks_.find(c);
      if (bit == blocks_.end()) continue;
      Block& block = bit->second;
      --block.refs;
      if (block.refs == 0 && block.children == 0) make_evictable(block);
    }
    pins_.erase(it);
  }

  long retain(const Request& request, TokenCount kv_end, TokenCount kv_cached,
              BlockManager& bm) {
    if (capacity_blocks_ <= 0) return 0;
    const TokenCount shareable_end =
        request.session >= 0
            ? kv_end
            : std::min<TokenCount>(request.shared_prefix_tokens, kv_end);
    const long first = kv_cached / block_size_;
    const long last = shareable_end / block_size_;
    if (last <= first) return 0;
    std::uint64_t parent_chain = kChainSeed;
    for (long d = 0; d < first; ++d) {
      const std::uint64_t content =
          block_content(request, static_cast<int>(d));
      if (content == 0) return 0;
      parent_chain = mix(parent_chain, content);
    }
    const std::uint64_t call_start_seq = next_seq_;
    long inserted = 0;
    for (long d = first; d < last; ++d) {
      const std::uint64_t content =
          block_content(request, static_cast<int>(d));
      if (content == 0) break;
      const std::uint64_t child = mix(parent_chain, content);
      if (blocks_.find(child) != blocks_.end()) {
        parent_chain = child;
        continue;
      }
      bool room = true;
      while (resident_blocks() >= capacity_blocks_) {
        if (evictable_.empty() ||
            evictable_.begin()->first >= call_start_seq) {
          room = false;
          break;
        }
        evict_block(evictable_.begin()->second);
        bm.release_cached(1);
      }
      if (!room) break;
      Block block;
      block.chain = child;
      block.parent = parent_chain;
      block.depth = static_cast<int>(d);
      block.session = request.session;
      if (d > 0) {
        auto pit = blocks_.find(parent_chain);
        if (pit != blocks_.end()) {
          Block& parent = pit->second;
          if (parent.refs == 0 && parent.children == 0)
            evictable_.erase(parent.lru_seq);
          ++parent.children;
        }
      }
      make_evictable(blocks_.emplace(child, block).first->second);
      note_session_delta(request.session, +1);
      ++stats_.inserted_blocks;
      ++inserted;
      parent_chain = child;
    }
    return inserted;
  }

  long reclaim(long want, BlockManager& bm) {
    long evicted = 0;
    while (evicted < want && !evictable_.empty()) {
      evict_block(evictable_.begin()->second);
      bm.release_cached(1);
      ++evicted;
    }
    return evicted;
  }

  long resident_blocks() const { return static_cast<long>(blocks_.size()); }
  long evictable_blocks() const {
    return static_cast<long>(evictable_.size());
  }
  long resident_sessions() const {
    return static_cast<long>(session_blocks_.size());
  }
  const PrefixCacheStats& stats() const { return stats_; }
  const std::map<TenantId, PrefixCacheStats>& tenant_stats() const {
    return tenant_stats_;
  }

 private:
  struct Block {
    std::uint64_t chain = 0;
    std::uint64_t parent = 0;
    int depth = 0;
    std::int64_t session = -1;
    int refs = 0;
    int children = 0;
    std::uint64_t lru_seq = 0;
  };

  static constexpr std::uint64_t kChainSeed = 0x56494455525f4b56ULL;
  static constexpr std::uint64_t kSharedPrefixTag = 0x51;
  static constexpr std::uint64_t kSessionTag = 0x52;

  static std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x | 1;
  }

  std::uint64_t block_content(const Request& request, int depth) const {
    const TokenCount block_end =
        (static_cast<TokenCount>(depth) + 1) * block_size_;
    if (request.shared_prefix_tokens > 0 &&
        block_end <= request.shared_prefix_tokens)
      return mix(mix(kSharedPrefixTag,
                     static_cast<std::uint64_t>(request.prefix_group)),
                 static_cast<std::uint64_t>(depth));
    if (request.session >= 0)
      return mix(mix(kSessionTag, static_cast<std::uint64_t>(request.session)),
                 static_cast<std::uint64_t>(depth));
    return 0;
  }

  long match_blocks(const Request& request,
                    std::vector<std::uint64_t>* chains) const {
    const long max_blocks = request.prefill_tokens <= 0
                                ? 0
                                : (request.prefill_tokens - 1) / block_size_;
    std::uint64_t chain = kChainSeed;
    long matched = 0;
    for (long d = 0; d < max_blocks; ++d) {
      const std::uint64_t content =
          block_content(request, static_cast<int>(d));
      if (content == 0) break;
      chain = mix(chain, content);
      if (blocks_.find(chain) == blocks_.end()) break;
      ++matched;
      if (chains != nullptr) chains->push_back(chain);
    }
    return matched;
  }

  void make_evictable(Block& block) {
    block.lru_seq = next_seq_++;
    evictable_[block.lru_seq] = block.chain;
  }

  void evict_block(std::uint64_t chain) {
    auto it = blocks_.find(chain);
    VIDUR_CHECK_MSG(it != blocks_.end(), "evicting a non-resident block");
    const Block block = it->second;
    VIDUR_CHECK_MSG(block.refs == 0 && block.children == 0,
                    "evicting a pinned or interior block");
    evictable_.erase(block.lru_seq);
    blocks_.erase(it);
    if (block.depth > 0) {
      auto pit = blocks_.find(block.parent);
      if (pit != blocks_.end()) {
        Block& parent = pit->second;
        --parent.children;
        if (parent.refs == 0 && parent.children == 0) make_evictable(parent);
      }
    }
    note_session_delta(block.session, -1);
    ++stats_.evicted_blocks;
  }

  void note_session_delta(std::int64_t session, long delta) {
    if (session < 0) return;
    auto it = session_blocks_.find(session);
    if (it == session_blocks_.end()) {
      if (delta > 0) session_blocks_[session] = delta;
      return;
    }
    it->second += delta;
    if (it->second <= 0) session_blocks_.erase(it);
  }

  long capacity_blocks_;
  TokenCount block_size_;
  std::uint64_t next_seq_ = 1;
  std::unordered_map<std::uint64_t, Block> blocks_;
  std::map<std::uint64_t, std::uint64_t> evictable_;
  std::unordered_map<RequestId, std::vector<std::uint64_t>> pins_;
  std::map<std::int64_t, long> session_blocks_;
  PrefixCacheStats stats_;
  std::map<TenantId, PrefixCacheStats> tenant_stats_;
};

/// What `call` threw: the VIDUR_CHECK message without its source
/// location, or "" if it returned.
template <class Call>
std::string check_message(Call&& call) {
  try {
    call();
  } catch (const Error& e) {
    const std::string what = e.what();
    const std::size_t dash = what.rfind("— ");
    return dash == std::string::npos ? what : what.substr(dash);
  }
  return {};
}

/// What one request holds on each side of a CachePair.
struct Held {
  long flat_blocks = 0;
  long ref_blocks = 0;
  bool pinned = false;  ///< the flat cache's pin flag (the reference keys
                        ///< its pins by request id)
};

/// A flat cache and the reference, each over its own BlockManager, driven
/// in lockstep. Every call goes to both; retain and reclaim record what
/// each side threw, and check() compares everything either side exposes.
struct CachePair {
  CachePair(long capacity, TokenCount block_size)
      : flat(capacity, block_size),
        ref(capacity, block_size),
        flat_bm(1 << 20, block_size),
        ref_bm(1 << 20, block_size) {}

  TokenCount probe(const Request& r) {
    const TokenCount tokens = flat.probe(r);
    EXPECT_EQ(tokens, ref.probe(r));
    return tokens;
  }
  TokenCount attach(const Request& r, Held& held) {
    const TokenCount tokens = flat.attach(r, held.pinned);
    EXPECT_EQ(tokens, ref.attach(r));
    return tokens;
  }
  /// `tokens` is what attach matched for `r`.
  void unpin(const Request& r, TokenCount tokens, Held& held) {
    flat.unpin(r, tokens, held.pinned);
    ref.unpin(r.id);
  }
  /// Donates on both sides and moves the donated blocks to the cache pool.
  long retain(const Request& r, TokenCount kv_end, TokenCount kv_cached,
              Held& held) {
    long a = -1, b = -1;
    flat_error = check_message([&] {
      a = flat.retain(r, kv_end, kv_cached, flat_bm);
      flat_bm.transfer_to_cache(held.flat_blocks, a);
    });
    ref_error = check_message([&] {
      b = ref.retain(r, kv_end, kv_cached, ref_bm);
      ref_bm.transfer_to_cache(held.ref_blocks, b);
    });
    EXPECT_EQ(a, b);
    return a;
  }
  long reclaim(long want) {
    long a = -1, b = -1;
    flat_error = check_message([&] { a = flat.reclaim(want, flat_bm); });
    ref_error = check_message([&] { b = ref.reclaim(want, ref_bm); });
    EXPECT_EQ(a, b);
    return a;
  }
  void grow_to(Held& held, TokenCount tokens) {
    ASSERT_TRUE(flat_bm.grow_to(held.flat_blocks, tokens));
    ASSERT_TRUE(ref_bm.grow_to(held.ref_blocks, tokens));
  }
  void release(Held& held) {
    flat_bm.release(held.flat_blocks);
    ref_bm.release(held.ref_blocks);
  }

  /// True when both sides agree on every observable.
  bool check() const {
    return flat.stats() == ref.stats() &&
           flat.tenant_stats() == ref.tenant_stats() &&
           flat.resident_blocks() == ref.resident_blocks() &&
           flat.evictable_blocks() == ref.evictable_blocks() &&
           flat.resident_sessions() == ref.resident_sessions() &&
           flat_bm.used_blocks() == ref_bm.used_blocks() &&
           flat_bm.cached_blocks() == ref_bm.cached_blocks();
  }

  PrefixCache flat;
  ReferencePrefixCache ref;
  BlockManager flat_bm;
  BlockManager ref_bm;
  std::string flat_error;  ///< what the last retain/reclaim threw, or ""
  std::string ref_error;
};

TEST(PrefixCacheDiff, RetainEvictsTheLeafItSkippedAndLinksNothing) {
  // Capacity 3, one block each for sessions 1, 2 and 3, oldest first.
  CachePair pair(/*capacity=*/3, /*block_size=*/16);
  // C (session 1) is admitted while nothing is resident: a miss, so it
  // pins nothing and will donate from block 0.
  const Request c = session_turn(0, /*session=*/1, 0, /*prefill=*/40);
  Held c_held;
  EXPECT_EQ(pair.attach(c, c_held), 0);
  pair.grow_to(c_held, 48);
  for (std::int64_t s = 1; s <= 3; ++s) {
    const Request r = session_turn(s, s, 0, /*prefill=*/17);
    Held held;
    EXPECT_EQ(pair.attach(r, held), 0);
    pair.grow_to(held, 20);
    EXPECT_EQ(pair.retain(r, /*kv_end=*/20, /*kv_cached=*/0, held), 1);
    pair.unpin(r, 0, held);
    pair.release(held);
  }
  ASSERT_TRUE(pair.check());
  EXPECT_EQ(pair.flat.resident_blocks(), 3);
  EXPECT_EQ(pair.flat.evictable_blocks(), 3);

  // C donates session 1's blocks 0-2. Block 0 is resident (skipped) and
  // the LRU head, so making room for block 1 evicts it; block 1 then goes
  // in with no parent link. Block 2 evicts session 2's block and links to
  // block 1.
  EXPECT_EQ(pair.retain(c, /*kv_end=*/48, /*kv_cached=*/0, c_held), 2);
  pair.unpin(c, 0, c_held);
  pair.release(c_held);
  ASSERT_TRUE(pair.check());
  EXPECT_EQ(pair.flat.stats().inserted_blocks, 5u);
  EXPECT_EQ(pair.flat.stats().evicted_blocks, 2u);
  EXPECT_EQ(pair.flat.resident_blocks(), 3);
  EXPECT_EQ(pair.flat.evictable_blocks(), 2);  // session 3's and block 2
  EXPECT_EQ(pair.flat.resident_sessions(), 2);
  EXPECT_EQ(pair.flat_bm.cached_blocks(), 3);
  // Session 1's chain is headless now: nothing matches from block 0.
  EXPECT_EQ(pair.probe(session_turn(9, 1, 1, 64)), 0);
  EXPECT_EQ(pair.probe(session_turn(9, 2, 1, 64)), 0);
  EXPECT_EQ(pair.probe(session_turn(9, 3, 1, 64)), 16);

  // Eviction order: session 3's block (oldest leaf), then block 2, whose
  // eviction makes block 1 a leaf at the LRU tail, then block 1, whose
  // parent chain is not resident.
  EXPECT_EQ(pair.reclaim(1), 1);
  ASSERT_TRUE(pair.check());
  EXPECT_EQ(pair.probe(session_turn(9, 3, 1, 64)), 0);
  EXPECT_EQ(pair.flat.evictable_blocks(), 1);
  EXPECT_EQ(pair.reclaim(1), 1);
  ASSERT_TRUE(pair.check());
  EXPECT_EQ(pair.flat.resident_blocks(), 1);
  EXPECT_EQ(pair.flat.evictable_blocks(), 1);
  EXPECT_EQ(pair.reclaim(5), 1);
  ASSERT_TRUE(pair.check());
  EXPECT_EQ(pair.flat.resident_blocks(), 0);
  EXPECT_EQ(pair.flat.resident_sessions(), 0);
  EXPECT_EQ(pair.flat_bm.cached_blocks(), 0);
  EXPECT_EQ(pair.flat_bm.used_blocks(), 0);
}

/// How a seeded random workload ended.
enum class Outcome {
  kDrained,     ///< every block evicted once all requests finished
  kStranded,    ///< the drain left blocks behind (the same on both sides)
  kCheckFailed  ///< a VIDUR_CHECK fired (on both sides, same message)
};

/// One seeded random workload: session turns, shared-prefix and plain
/// requests admitted, completed, preempted and re-admitted over a cache of
/// 1-64 blocks, with reclaims and routing probes mixed in.
void run_random_ops(std::uint64_t seed, int ops, Outcome* outcome) {
  Rng rng(seed);
  const TokenCount block_size = rng.bernoulli(0.5) ? 16 : 8;
  CachePair pair(rng.uniform_int(1, 64), block_size);

  struct Live {
    Request request;
    TokenCount kv_cached = 0;
    TokenCount kv_end = 0;
    Held held;
  };
  std::vector<Live> live;
  std::vector<Request> preempted;
  const int sessions = static_cast<int>(rng.uniform_int(1, 6));
  std::vector<TokenCount> context(static_cast<std::size_t>(sessions), 0);
  const TokenCount shared[2] = {rng.uniform_int(0, 5) * block_size,
                                rng.uniform_int(1, 80)};
  RequestId next_id = 0;

  const auto make_request = [&]() {
    Request r;
    r.id = next_id++;
    r.tenant = static_cast<TenantId>(rng.uniform_int(0, 2));
    r.decode_tokens = rng.uniform_int(1, 3 * block_size);
    const int group = static_cast<int>(rng.uniform_int(0, 1));
    const double kind = rng.uniform();
    if (kind < 0.7) {
      // A session turn extends the session's last context, and turns of
      // one session may overlap.
      const int s = static_cast<int>(rng.uniform_int(0, sessions - 1));
      TokenCount& ctx = context[static_cast<std::size_t>(s)];
      r.session = s;
      r.prefix_group = group;
      r.shared_prefix_tokens = shared[group];
      r.prefill_tokens =
          std::max(ctx, shared[group]) + rng.uniform_int(1, 4 * block_size);
      ctx = r.prefill_tokens + r.decode_tokens;
    } else if (kind < 0.9) {
      r.prefix_group = group;
      r.shared_prefix_tokens = shared[group];
      r.prefill_tokens = shared[group] + rng.uniform_int(1, 2 * block_size);
    } else {
      r.prefill_tokens = rng.uniform_int(1, 6 * block_size);
    }
    return r;
  };
  const auto admit = [&](const Request& r, bool attach) {
    Live l;
    l.request = r;
    l.kv_cached = attach ? pair.attach(r, l.held) : 0;
    l.kv_end = r.prefill_tokens + rng.uniform_int(0, r.decode_tokens);
    pair.grow_to(l.held, l.kv_end - l.kv_cached);
    live.push_back(l);
  };
  const auto take_live = [&]() {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
    const Live l = live[i];
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    return l;
  };
  const auto complete = [&](Live l) {
    // Completion (or a disaggregated hand-off): donate, then unpin.
    pair.retain(l.request, l.kv_end, l.kv_cached, l.held);
    pair.unpin(l.request, l.kv_cached, l.held);
    pair.release(l.held);
  };

  *outcome = Outcome::kCheckFailed;
  for (int op = 0; op < ops; ++op) {
    const double u = rng.uniform();
    if (u < 0.35 || (live.empty() && u < 0.75)) {
      admit(make_request(), /*attach=*/rng.bernoulli(0.95));
    } else if (u < 0.45 && !preempted.empty()) {
      // Re-admission after preemption attaches again under the same id.
      const Request r = preempted.back();
      preempted.pop_back();
      admit(r, /*attach=*/true);
    } else if (u < 0.75 && !live.empty()) {
      complete(take_live());
    } else if (u < 0.83 && !live.empty()) {
      Live l = take_live();
      pair.unpin(l.request, l.kv_cached, l.held);
      pair.release(l.held);
      preempted.push_back(l.request);
    } else if (u < 0.9) {
      pair.reclaim(rng.uniform_int(0, 4));
    } else if (u < 0.98) {
      pair.probe(make_request());
    } else {
      // A request that holds no pins (a second unpin, or one that never
      // attached): a no-op on both sides.
      Request stray;
      stray.id = next_id + 1000;
      stray.session = 0;
      stray.prefill_tokens = 8 * block_size;
      Held none;
      pair.unpin(stray, 4 * block_size, none);
    }
    ASSERT_EQ(pair.flat_error, pair.ref_error)
        << "seed " << seed << ", op " << op;
    if (!pair.ref_error.empty()) return;
    ASSERT_TRUE(pair.check()) << "seed " << seed << ", op " << op;
  }
  // Finish everything and drain.
  while (!live.empty()) {
    complete(take_live());
    ASSERT_EQ(pair.flat_error, pair.ref_error) << "seed " << seed;
    if (!pair.ref_error.empty()) return;
  }
  pair.reclaim(1 << 20);
  ASSERT_EQ(pair.flat_error, pair.ref_error) << "seed " << seed;
  if (!pair.ref_error.empty()) return;
  ASSERT_TRUE(pair.check()) << "seed " << seed << ", drain";
  *outcome = pair.flat.resident_blocks() == 0 ? Outcome::kDrained
                                              : Outcome::kStranded;
  if (*outcome == Outcome::kDrained) {
    EXPECT_EQ(pair.flat_bm.used_blocks(), 0) << "seed " << seed;
  }
}

TEST(PrefixCacheDiff, SeededRandomOpsMatchTheReferenceModel) {
  // Overlapping turns of one session reach a known defect of the eviction
  // rule. A block inserted unlinked (retain evicted its parent to make
  // room) still decrements its parent chain's child count on eviction if
  // that chain is resident again by then. The count goes negative, and the
  // LRU later meets a block that fails evict_block's check, or keeps a
  // block whose count never returns to zero. Both implementations must
  // agree there too; most workloads never reach it.
  int drained = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Outcome outcome = Outcome::kCheckFailed;
    run_random_ops(seed, 400, &outcome);
    if (HasFatalFailure()) return;
    drained += outcome == Outcome::kDrained ? 1 : 0;
  }
  EXPECT_GT(drained, 240);
}

// ----------------------------------------------- end-to-end conservation

VidurSession& shared_session() {
  static VidurSession session(model_by_name("llama2-7b"));
  return session;
}

DeploymentConfig cached_config(int replicas, bool cache_on) {
  DeploymentConfig config;
  config.sku_name = "a100";
  config.parallel = ParallelConfig{1, 1, replicas};
  config.scheduler.kind = SchedulerKind::kSarathi;
  config.scheduler.max_batch_size = 64;
  config.prefix_cache.enabled = cache_on;
  return config;
}

Trace session_trace(int n, std::uint64_t seed) {
  Scenario s = scenario_by_name("session-chat");
  s.num_requests = n;
  return generate_scenario_trace(s, seed);
}

TEST(PrefixCacheSim, TokensSavedMatchesColdRunExactly) {
  VidurSession& session = shared_session();
  const Trace trace = session_trace(60, 11);
  const std::vector<TenantInfo> tenants =
      scenario_by_name("session-chat").tenant_infos();

  TraceRecorder cold_rec, cached_rec;
  SimObs obs;
  obs.trace = &cold_rec;
  const SimulationMetrics cold =
      session.simulate(cached_config(1, false), trace, tenants, obs);
  obs.trace = &cached_rec;
  const SimulationMetrics cached =
      session.simulate(cached_config(1, true), trace, tenants, obs);

  ASSERT_EQ(cold.num_completed, trace.size());
  ASSERT_EQ(cached.num_completed, trace.size());
  EXPECT_FALSE(cold.prefix_cache.enabled);
  EXPECT_EQ(cold.prefix_cache.lookups, 0);
  ASSERT_TRUE(cached.prefix_cache.enabled);

  // Exact accounting: one lookup per request, hits + misses == lookups,
  // and the trace's per-lookup records reproduce the aggregate numbers.
  EXPECT_EQ(cached.prefix_cache.lookups,
            static_cast<std::int64_t>(trace.size()));
  EXPECT_EQ(cached.prefix_cache.hits + cached.prefix_cache.misses,
            cached.prefix_cache.lookups);
  EXPECT_GT(cached.prefix_cache.hits, 0);
  EXPECT_GT(cached.prefix_cache.tokens_saved, 0);
  std::int64_t rec_lookups = 0, rec_hits = 0;
  TokenCount rec_saved = 0;
  for (const TraceRecord& r : cached_rec.records()) {
    if (r.kind != TraceEventKind::kCacheLookup) continue;
    ++rec_lookups;
    if (r.detail == 1) {
      ++rec_hits;
      rec_saved += r.a;
    } else {
      EXPECT_EQ(r.a, 0);
    }
  }
  EXPECT_EQ(rec_lookups, cached.prefix_cache.lookups);
  EXPECT_EQ(rec_hits, cached.prefix_cache.hits);
  EXPECT_EQ(rec_saved, cached.prefix_cache.tokens_saved);

  // Conservation against the cold run: with no preemptions in either run
  // (asserted), the only difference in processed tokens is the prefill
  // work served from cache — the batch streams' q_token totals must
  // differ by exactly tokens_saved.
  const auto batch_tokens = [](const TraceRecorder& rec, bool* preempted) {
    std::int64_t total = 0;
    for (const TraceRecord& r : rec.records()) {
      if (r.kind == TraceEventKind::kBatchStart) total += r.b;
      if (r.kind == TraceEventKind::kPreempted) *preempted = true;
    }
    return total;
  };
  bool cold_preempted = false, cached_preempted = false;
  const std::int64_t cold_tokens = batch_tokens(cold_rec, &cold_preempted);
  const std::int64_t cached_tokens =
      batch_tokens(cached_rec, &cached_preempted);
  ASSERT_FALSE(cold_preempted);
  ASSERT_FALSE(cached_preempted);
  EXPECT_EQ(cold_tokens - cached_tokens, cached.prefix_cache.tokens_saved);

  // Reuse is strictly a speedup here: serving the same trace with fewer
  // prefill tokens cannot lengthen the run.
  EXPECT_LE(cached.makespan, cold.makespan + 1e-9);

  // Per-tenant slices sum to the totals (single tenant: equal).
  ASSERT_EQ(cached.prefix_cache.by_tenant.size(), 1u);
  EXPECT_EQ(cached.prefix_cache.by_tenant[0].name, "chat");
  EXPECT_EQ(cached.prefix_cache.by_tenant[0].tokens_saved,
            cached.prefix_cache.tokens_saved);
}

TEST(PrefixCacheSim, CacheAwareRoutingBeatsRoundRobinOnSessions) {
  VidurSession& session = shared_session();
  const Trace trace = session_trace(80, 5);
  const std::vector<TenantInfo> tenants =
      scenario_by_name("session-chat").tenant_infos();

  DeploymentConfig rr = cached_config(2, true);
  rr.global_scheduler = GlobalSchedulerKind::kRoundRobin;
  DeploymentConfig aware = cached_config(2, true);
  aware.global_scheduler = GlobalSchedulerKind::kCacheAware;

  const SimulationMetrics m_rr = session.simulate(rr, trace, tenants);
  const SimulationMetrics m_aware = session.simulate(aware, trace, tenants);

  // Round-robin scatters a session's turns across replicas, where only
  // the tenant-wide shared system prompt is resident; affinity routing
  // sends a turn to the replica holding the whole conversation. The
  // difference shows up in how many tokens each hit serves.
  EXPECT_GT(m_aware.prefix_cache.hits, 0);
  EXPECT_GE(m_aware.prefix_cache.hit_rate(), m_rr.prefix_cache.hit_rate());
  EXPECT_GT(m_aware.prefix_cache.tokens_saved,
            m_rr.prefix_cache.tokens_saved);
}

TEST(PrefixCacheSim, ResidentSessionsAreDistinctAcrossReplicas) {
  // Round-robin sends the two turns of one conversation to different
  // replicas, and each replica retains its turn's context: the session is
  // resident twice but is one session.
  VidurSession& session = shared_session();
  DeploymentConfig config = cached_config(2, true);
  config.global_scheduler = GlobalSchedulerKind::kRoundRobin;
  Trace trace = {session_turn(0, /*session=*/3, 0, /*prefill=*/200),
                 session_turn(1, /*session=*/3, 1, /*prefill=*/400)};
  trace[1].arrival_time = 0.01;

  const SimulationMetrics m = session.simulate(config, trace);
  ASSERT_EQ(m.num_completed, trace.size());
  ASSERT_TRUE(m.prefix_cache.enabled);
  // Both turns donated their whole blocks: 207 and 407 KV tokens (the
  // last output token's KV is never written).
  EXPECT_EQ(m.prefix_cache.inserted_blocks, 207 / 16 + 407 / 16);
  EXPECT_EQ(m.prefix_cache.resident_sessions, 1);
}

TEST(PrefixCacheSim, SameSeedReplayIsBitIdenticalWithEverythingOn) {
  // The paranoid determinism case: cache-aware routing + autoscaling +
  // prefix cache + tracing, twice, must agree record for record.
  VidurSession& session = shared_session();
  DeploymentConfig config = cached_config(4, true);
  config.global_scheduler = GlobalSchedulerKind::kCacheAware;
  config.autoscale.kind = AutoscalerKind::kReactive;
  config.autoscale.min_replicas = 1;
  config.autoscale.initial_replicas = 1;
  config.autoscale.decision_interval = 2.0;
  config.autoscale.provision_delay = 1.0;
  config.autoscale.warmup_delay = 0.5;
  config.autoscale.scale_down_cooldown = 10.0;
  const Trace trace = session_trace(80, 23);

  TraceRecorder first, second;
  SimObs obs;
  obs.trace = &first;
  const SimulationMetrics m1 = session.simulate(config, trace, {}, obs);
  obs.trace = &second;
  const SimulationMetrics m2 = session.simulate(config, trace, {}, obs);

  ASSERT_GT(first.records().size(), 0u);
  ASSERT_EQ(first.records().size(), second.records().size());
  for (std::size_t i = 0; i < first.records().size(); ++i)
    ASSERT_EQ(first.records()[i], second.records()[i]) << "record " << i;
  EXPECT_EQ(m1.prefix_cache.hits, m2.prefix_cache.hits);
  EXPECT_EQ(m1.prefix_cache.tokens_saved, m2.prefix_cache.tokens_saved);
  EXPECT_GT(m1.prefix_cache.hits, 0);

  bool saw_lookup = false, saw_scale = false;
  for (const TraceRecord& r : first.records()) {
    saw_lookup |= r.kind == TraceEventKind::kCacheLookup;
    saw_scale |= r.kind == TraceEventKind::kScaleDecision;
  }
  EXPECT_TRUE(saw_lookup);
  EXPECT_TRUE(saw_scale);
}

// --------------------------------------------------- spec & scenario API

TEST(PrefixCacheSpec, RoundTripsAndDefaultsAreOmitted) {
  ExperimentSpec spec;
  spec.with_scenario("session-chat")
      .with_routing(GlobalSchedulerKind::kCacheAware)
      .with_prefix_cache(0.4);
  const ExperimentSpec reparsed = ExperimentSpec::from_json(spec.to_json());
  EXPECT_EQ(reparsed, spec);
  EXPECT_TRUE(reparsed.deployment.prefix_cache.enabled);
  EXPECT_DOUBLE_EQ(reparsed.deployment.prefix_cache.capacity_fraction, 0.4);
  EXPECT_NO_THROW(spec.validate());

  // A default spec keeps the section out of the canonical serialization.
  EXPECT_EQ(ExperimentSpec{}.to_json_string().find("prefix_cache"),
            std::string::npos);
}

TEST(PrefixCacheSpec, TypoedKeyGetsDidYouMean) {
  const std::string json = R"({
    "name": "x", "model": "llama2-7b",
    "deployment": {"prefix_cach": {"enabled": true}},
    "workload": {"scenario": "session-chat"}
  })";
  try {
    ExperimentSpec::from_json_string(json);
    FAIL() << "expected a did-you-mean error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean 'prefix_cache'"),
              std::string::npos)
        << e.what();
  }
}

TEST(PrefixCacheSpec, CacheAwareRoutingRequiresTheCache) {
  ExperimentSpec spec;
  spec.with_scenario("session-chat")
      .with_routing(GlobalSchedulerKind::kCacheAware);
  try {
    spec.validate();
    FAIL() << "expected validate() to reject cache_aware without the cache";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("prefix_cache"), std::string::npos)
        << e.what();
  }
  spec.with_prefix_cache();
  EXPECT_NO_THROW(spec.validate());
}

TEST(PrefixCacheSpec, InvalidCapacityFractionIsRejected) {
  ExperimentSpec spec;
  spec.with_scenario("session-chat").with_prefix_cache(0.0);
  EXPECT_THROW(spec.validate(), Error);
  spec.with_prefix_cache(1.5);
  EXPECT_THROW(spec.validate(), Error);
  spec.with_prefix_cache(1.0);
  EXPECT_NO_THROW(spec.validate());
}

TEST(SessionScenarios, BuiltinsAreRegistered) {
  const std::vector<std::string>& names = builtin_scenario_names();
  const auto has = [&](const char* n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  EXPECT_TRUE(has("session-chat"));
  EXPECT_TRUE(has("shared-prefix-mix"));
  // The one-liner `vidur list` prints advertises the session structure.
  const std::string line = scenario_by_name("session-chat").to_string();
  EXPECT_NE(line.find("sessions"), std::string::npos) << line;
  EXPECT_NE(line.find("shared-prefix 512"), std::string::npos) << line;
}

TEST(SessionScenarios, TraceIsSessionStructuredAndDeterministic) {
  Scenario s = scenario_by_name("session-chat");
  s.num_requests = 120;
  const Trace trace = generate_scenario_trace(s, 3);
  ASSERT_EQ(trace.size(), 120u);

  // Ids are dense and arrivals sorted after the session expansion.
  std::map<std::int64_t, const Request*> last_turn;
  int multi_turn = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Request& r = trace[i];
    EXPECT_EQ(r.id, static_cast<RequestId>(i));
    if (i > 0) {
      EXPECT_GE(r.arrival_time, trace[i - 1].arrival_time);
    }
    ASSERT_GE(r.session, 0);  // every request of this scenario is tagged
    EXPECT_EQ(r.shared_prefix_tokens, 512);
    EXPECT_GT(r.prefill_tokens, 512);  // system prompt + non-empty input
    EXPECT_LE(r.prefill_tokens, 8192);
    const auto prev = last_turn.find(r.session);
    if (prev != last_turn.end()) {
      ++multi_turn;
      // Turns of one session: later turn, later arrival, grown context.
      EXPECT_EQ(r.turn, prev->second->turn + 1);
      EXPECT_GE(r.arrival_time, prev->second->arrival_time);
      // Strictly grown context unless both turns sit at the window cap.
      if (r.prefill_tokens < 8192) {
        EXPECT_GT(r.prefill_tokens, prev->second->prefill_tokens);
      }
      EXPECT_EQ(r.prefix_group, prev->second->prefix_group);
    } else {
      EXPECT_EQ(r.turn, 0);
    }
    last_turn[r.session] = &r;
  }
  EXPECT_GT(multi_turn, 0);  // max_turns = 6 must yield follow-ups

  const Trace replay = generate_scenario_trace(s, 3);
  ASSERT_EQ(replay.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(replay[i].id, trace[i].id);
    EXPECT_EQ(replay[i].session, trace[i].session);
    EXPECT_EQ(replay[i].turn, trace[i].turn);
    EXPECT_EQ(replay[i].prefill_tokens, trace[i].prefill_tokens);
    EXPECT_DOUBLE_EQ(replay[i].arrival_time, trace[i].arrival_time);
  }
}

TEST(SessionScenarios, SessionSpecValidationCatchesDegenerateValues) {
  Scenario s = scenario_by_name("session-chat");
  s.tenants[0].session.max_turns = 0;
  EXPECT_THROW(s.validate(), Error);
  s = scenario_by_name("session-chat");
  s.tenants[0].session.mean_think_time_s = -1.0;
  EXPECT_THROW(s.validate(), Error);
  s = scenario_by_name("session-chat");
  s.tenants[0].session.max_context_tokens =
      s.tenants[0].session.shared_prefix_tokens;
  EXPECT_THROW(s.validate(), Error);
}

}  // namespace
}  // namespace vidur
