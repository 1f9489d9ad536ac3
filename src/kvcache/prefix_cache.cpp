#include "kvcache/prefix_cache.h"

#include <algorithm>

#include "common/check.h"

namespace vidur {

namespace {

constexpr std::uint64_t kChainSeed = 0x56494455525f4b56ULL;  // "VIDUR_KV"
constexpr std::uint64_t kSharedPrefixTag = 0x51;
constexpr std::uint64_t kSessionTag = 0x52;
constexpr int kIndexMinBits = 4;

/// splitmix64-style combiner. Always odd, so never 0: callers use 0 as
/// the "not shareable" sentinel and the chain index as its empty key.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x | 1;
}

std::uint64_t mix3(std::uint64_t tag, std::uint64_t id, std::uint64_t depth) {
  return mix(mix(tag, id), depth);
}

}  // namespace

// ------------------------------------------------------------ chain index

PrefixCache::ChainIndex::ChainIndex()
    : entries_(std::size_t{1} << kIndexMinBits),
      mask_((std::size_t{1} << kIndexMinBits) - 1),
      shift_(64 - kIndexMinBits) {}

PrefixCache::Slot PrefixCache::ChainIndex::find(std::uint64_t chain) const {
  for (std::size_t i = home(chain);; i = (i + 1) & mask_) {
    const Entry& e = entries_[i];
    if (e.chain == chain) return e.slot;
    if (e.chain == 0) return kNoSlot;
  }
}

void PrefixCache::ChainIndex::insert(std::uint64_t chain, Slot slot) {
  if (2 * (size_ + 1) > entries_.size()) grow();
  place(Entry{chain, slot});
  ++size_;
}

void PrefixCache::ChainIndex::erase(std::uint64_t chain) {
  std::size_t hole = home(chain);
  while (entries_[hole].chain != chain) hole = (hole + 1) & mask_;
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home lies cyclically in (hole, j], where it must stay.
  for (std::size_t j = (hole + 1) & mask_; entries_[j].chain != 0;
       j = (j + 1) & mask_) {
    const std::size_t h = home(entries_[j].chain);
    if (((j - h) & mask_) >= ((j - hole) & mask_)) {
      entries_[hole] = entries_[j];
      hole = j;
    }
  }
  entries_[hole] = Entry{};
  --size_;
}

void PrefixCache::ChainIndex::grow() {
  std::vector<Entry> old(entries_.size() * 2);
  old.swap(entries_);
  mask_ = entries_.size() - 1;
  --shift_;
  for (const Entry& e : old)
    if (e.chain != 0) place(e);
}

void PrefixCache::ChainIndex::place(const Entry& entry) {
  std::size_t i = home(entry.chain);
  while (entries_[i].chain != 0) i = (i + 1) & mask_;
  entries_[i] = entry;
}

// ------------------------------------------------------------ prefix cache

PrefixCache::PrefixCache(long capacity_blocks, TokenCount block_size)
    : capacity_blocks_(capacity_blocks), block_size_(block_size) {
  VIDUR_CHECK(capacity_blocks >= 0);
  VIDUR_CHECK(block_size > 0);
}

std::uint64_t PrefixCache::block_content(const Request& request,
                                         int depth) const {
  // The block is shareable only if every token in it has a stable identity:
  // tokens inside the tenant's shared prefix are identified by the prefix
  // group, and tokens of a multi-turn conversation by the session (turn
  // j+1's prompt extends turn j's full context append-only).
  const TokenCount block_end =
      (static_cast<TokenCount>(depth) + 1) * block_size_;
  if (request.shared_prefix_tokens > 0 &&
      block_end <= request.shared_prefix_tokens)
    return mix3(kSharedPrefixTag,
                static_cast<std::uint64_t>(request.prefix_group),
                static_cast<std::uint64_t>(depth));
  if (request.session >= 0)
    return mix3(kSessionTag, static_cast<std::uint64_t>(request.session),
                static_cast<std::uint64_t>(depth));
  return 0;
}

long PrefixCache::max_match_blocks(const Request& request) const {
  // At least one prompt token must stay cold: the batch that "computes"
  // the request needs a non-empty prefill to emit the first token from.
  return request.prefill_tokens <= 0
             ? 0
             : (request.prefill_tokens - 1) / block_size_;
}

template <typename Visit>
long PrefixCache::walk_chain(const Request& request, long max_blocks,
                             Visit&& visit) const {
  std::uint64_t chain = kChainSeed;
  long matched = 0;
  for (long d = 0; d < max_blocks; ++d) {
    const std::uint64_t content =
        block_content(request, static_cast<int>(d));
    if (content == 0) break;
    chain = mix(chain, content);
    const Slot slot = index_.find(chain);
    if (slot == kNoSlot) break;
    ++matched;
    visit(slot);
  }
  return matched;
}

TokenCount PrefixCache::probe(const Request& request) const {
  return walk_chain(request, max_match_blocks(request), [](Slot) {}) *
         block_size_;
}

TokenCount PrefixCache::attach(const Request& request, bool& pinned) {
  VIDUR_CHECK_MSG(!pinned, "attach for request " << request.id
                                                 << " while it holds pins");
  // Pinning during the walk is safe: it changes refs and the LRU list,
  // never the index the walk reads.
  const long matched =
      walk_chain(request, max_match_blocks(request), [this](Slot s) {
        Block& block = slab_[s];
        if (block.refs == 0 && block.children == 0) unlink(s);
        ++block.refs;
      });
  const TokenCount tokens = matched * block_size_;
  PrefixCacheStats& tenant = tenant_stats_[request.tenant];
  ++stats_.lookups;
  ++tenant.lookups;
  if (matched == 0) {
    ++stats_.misses;
    ++tenant.misses;
    return 0;
  }
  ++stats_.hits;
  ++tenant.hits;
  stats_.tokens_saved += tokens;
  tenant.tokens_saved += tokens;
  pinned = true;
  return tokens;
}

void PrefixCache::unpin(const Request& request, TokenCount tokens,
                        bool& pinned) {
  if (!pinned) return;
  pinned = false;
  const long blocks = tokens / block_size_;
  const long walked = walk_chain(request, blocks, [this](Slot s) {
    Block& block = slab_[s];
    --block.refs;
    if (block.refs == 0 && block.children == 0) make_evictable(s);
  });
  VIDUR_CHECK_MSG(walked == blocks, "unpin of request "
                                        << request.id << " found " << walked
                                        << " of its " << blocks
                                        << " pinned blocks");
}

long PrefixCache::retain(const Request& request, TokenCount kv_end,
                         TokenCount kv_cached, BlockManager& bm) {
  if (capacity_blocks_ <= 0) return 0;
  const TokenCount shareable_end =
      request.session >= 0
          ? kv_end
          : std::min<TokenCount>(request.shared_prefix_tokens, kv_end);
  const long first = kv_cached / block_size_;  // cached prefix: block-aligned
  const long last = shareable_end / block_size_;  // whole blocks only
  if (last <= first) return 0;

  // Rebuild the chain hash up to the donation start.
  std::uint64_t parent_chain = kChainSeed;
  for (long d = 0; d < first; ++d) {
    const std::uint64_t content =
        block_content(request, static_cast<int>(d));
    if (content == 0) return 0;  // cached prefix must be shareable
    parent_chain = mix(parent_chain, content);
  }

  const std::uint64_t call_start_seq = next_seq_;
  long inserted = 0;
  for (long d = first; d < last; ++d) {
    const std::uint64_t content =
        block_content(request, static_cast<int>(d));
    if (content == 0) break;
    const std::uint64_t child = mix(parent_chain, content);
    if (index_.find(child) != kNoSlot) {
      // Already resident (another request of the same group/session beat
      // us to it); the caller still owns — and will release — its copy.
      // If it is an unpinned leaf, the room loop below may evict it on a
      // later iteration, and the next block then goes in unlinked.
      parent_chain = child;
      continue;
    }
    // Make room, but never by evicting a block this call just inserted.
    bool room = true;
    while (resident_blocks() >= capacity_blocks_) {
      if (lru_head_ == kNoSlot ||
          slab_[lru_head_].lru_seq >= call_start_seq) {
        room = false;
        break;
      }
      evict_block(lru_head_);
      bm.release_cached(1);
    }
    if (!room) break;

    if (d > 0) {
      const Slot p = index_.find(parent_chain);
      if (p != kNoSlot) {
        Block& parent = slab_[p];
        if (parent.refs == 0 && parent.children == 0) unlink(p);
        ++parent.children;
      }
    }
    Slot s;
    if (free_slots_.empty()) {
      s = static_cast<Slot>(slab_.size());
      slab_.emplace_back();
    } else {
      s = free_slots_.back();
      free_slots_.pop_back();
    }
    Block& block = slab_[s];
    block.chain = child;
    block.parent = parent_chain;
    block.depth = static_cast<int>(d);
    block.session = request.session;
    index_.insert(child, s);
    make_evictable(s);
    ++stats_.inserted_blocks;
    ++inserted;
    parent_chain = child;
  }
  return inserted;
}

long PrefixCache::reclaim(long want, BlockManager& bm) {
  long evicted = 0;
  while (evicted < want && lru_head_ != kNoSlot) {
    evict_block(lru_head_);
    bm.release_cached(1);
    ++evicted;
  }
  return evicted;
}

std::vector<std::int64_t> PrefixCache::resident_session_ids() const {
  std::vector<std::int64_t> ids;
  for (const Block& block : slab_)
    if (block.chain != 0 && block.session >= 0) ids.push_back(block.session);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

void PrefixCache::make_evictable(Slot slot) {
  unlink(slot);  // keeps the list well-formed if it is already on it
  Block& block = slab_[slot];
  block.lru_seq = next_seq_++;
  block.lru_prev = lru_tail_;
  block.lru_next = kNoSlot;
  if (lru_tail_ == kNoSlot)
    lru_head_ = slot;
  else
    slab_[lru_tail_].lru_next = slot;
  lru_tail_ = slot;
  ++evictable_;
}

void PrefixCache::unlink(Slot slot) {
  Block& block = slab_[slot];
  if (block.lru_seq == 0) return;
  if (block.lru_prev == kNoSlot)
    lru_head_ = block.lru_next;
  else
    slab_[block.lru_prev].lru_next = block.lru_next;
  if (block.lru_next == kNoSlot)
    lru_tail_ = block.lru_prev;
  else
    slab_[block.lru_next].lru_prev = block.lru_prev;
  block.lru_seq = 0;
  block.lru_prev = block.lru_next = kNoSlot;
  --evictable_;
}

void PrefixCache::evict_block(Slot slot) {
  const Block block = slab_[slot];
  VIDUR_CHECK_MSG(block.chain != 0, "evicting a non-resident block");
  VIDUR_CHECK_MSG(block.refs == 0 && block.children == 0,
                  "evicting a pinned or interior block");
  unlink(slot);
  index_.erase(block.chain);
  slab_[slot] = Block{};
  free_slots_.push_back(slot);
  if (block.depth > 0) {
    // By chain, not by slot: a block inserted after its parent was
    // evicted holds no link, and its parent chain may be resident again.
    const Slot p = index_.find(block.parent);
    if (p != kNoSlot) {
      Block& parent = slab_[p];
      --parent.children;
      if (parent.refs == 0 && parent.children == 0) make_evictable(p);
    }
  }
  ++stats_.evicted_blocks;
}

}  // namespace vidur
