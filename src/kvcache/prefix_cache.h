// Per-replica prefix cache: block-granular KV reuse over the BlockManager.
//
// Completed requests donate their shareable KV blocks (shared system
// prompts, multi-turn conversation context) into a per-replica pool keyed
// by token-hash chains. A later request whose prefix hashes to a resident
// chain skips the matched tokens' prefill compute entirely; the scheduler
// charges only the cold suffix. Retained blocks live inside the replica's
// BlockManager accounting (the KV-pressure signal sees them), are pinned
// while any request reads them, and are evicted LRU-leaf-first when the
// pool exceeds its capacity or an active request needs the memory back.
//
// Layout: blocks live in a slab (a vector plus a free list of slot
// indices), an open-addressing index maps each resident chain hash to its
// slot, and the LRU over unpinned leaves is a doubly-linked list threaded
// through the slab. Lookup, insertion, eviction and every LRU update are
// O(1) expected, with no per-block node allocation.
//
// Determinism: eviction order is a strict LRU sequence number (no clocks,
// no pointers), so same-seed replays are bit-identical. Nothing iterates
// the index, so its layout never reaches a result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "common/types.h"
#include "kvcache/prefix_cache_config.h"
#include "scheduler/memory.h"
#include "workload/request.h"

namespace vidur {

/// Exact cache accounting. hits + misses == lookups always; tokens_saved
/// is the sum of matched prefix tokens across all hits.
struct PrefixCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserted_blocks = 0;
  std::uint64_t evicted_blocks = 0;
  TokenCount tokens_saved = 0;

  bool operator==(const PrefixCacheStats&) const = default;
};

class PrefixCache {
 public:
  /// `capacity_blocks` caps the retained (unpinned + pinned) pool size;
  /// `block_size` must match the replica's BlockManager.
  PrefixCache(long capacity_blocks, TokenCount block_size);

  /// Longest resident prefix of `request`, in tokens. Read-only: no stats,
  /// no pins, no LRU touch — safe for routing probes.
  TokenCount probe(const Request& request) const;

  /// Like probe, but records the lookup (hit/miss, tokens saved, tenant
  /// slice) and, on a hit, pins every matched block and sets `pinned`
  /// (which must be clear). The blocks stay pinned until unpin. The
  /// scheduler performs at most one attach per (re-)admission. Returns the
  /// matched token count.
  TokenCount attach(const Request& request, bool& pinned);

  /// Drop the pins attach took for `request`, whose match was `tokens`
  /// long, and clear `pinned`. Re-walks the chain: a pinned block is never
  /// evicted, so the walk meets exactly the blocks attach pinned. Blocks
  /// whose last pin leaves become LRU eviction candidates (leaves only;
  /// interior chain blocks stay until their children go). No-op when
  /// `pinned` is clear, so a second unpin changes nothing.
  void unpin(const Request& request, TokenCount tokens, bool& pinned);

  /// Donate `request`'s shareable KV blocks in [kv_cached, kv_end) to the
  /// cache. Whole blocks only; already-resident blocks are skipped. Evicts
  /// LRU leaves when over capacity (freeing them in `bm`), but never blocks
  /// donated by this call. Returns the number of blocks inserted; the
  /// caller moves that many of the request's blocks into the cache pool
  /// (BlockManager::transfer_to_cache).
  long retain(const Request& request, TokenCount kv_end, TokenCount kv_cached,
              BlockManager& bm);

  /// Evict up to `want` LRU leaf blocks, freeing their memory in `bm`.
  /// Returns the number actually evicted (may be less when everything
  /// left is pinned or interior).
  long reclaim(long want, BlockManager& bm);

  long capacity_blocks() const { return capacity_blocks_; }
  long resident_blocks() const {
    return static_cast<long>(slab_.size() - free_slots_.size());
  }
  long evictable_blocks() const { return evictable_; }
  /// Sessions with at least one resident block on this replica.
  long resident_sessions() const {
    return static_cast<long>(resident_session_ids().size());
  }
  /// Ids of those sessions, ascending. Walks the slab: meant for the end
  /// of a run, not the per-request path.
  std::vector<std::int64_t> resident_session_ids() const;

  const PrefixCacheStats& stats() const { return stats_; }
  /// Per-tenant slices, keyed by tenant id (ordered for determinism).
  const std::map<TenantId, PrefixCacheStats>& tenant_stats() const {
    return tenant_stats_;
  }

 private:
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = ~Slot{0};

  struct Block {
    std::uint64_t chain = 0;   ///< hash of the full prefix; 0 = free slot
    std::uint64_t parent = 0;  ///< chain of the previous block (depth > 0)
    std::uint64_t lru_seq = 0;  ///< nonzero exactly while on the LRU list
    std::int64_t session = -1;
    int depth = 0;     ///< block index within the prefix
    int refs = 0;      ///< active requests reading this block
    int children = 0;  ///< resident blocks linked to this one as parent
    Slot lru_prev = kNoSlot;  ///< towards the LRU head (older)
    Slot lru_next = kNoSlot;  ///< towards the LRU tail (newer)
  };

  /// Open-addressing map chain hash -> slot. Linear probing over a
  /// power-of-two table grown at half load; deletion shifts the probe run
  /// back, so there are no tombstones. Chain hashes are odd, so 0 marks an
  /// empty entry, and their top bits pick the home entry.
  class ChainIndex {
   public:
    ChainIndex();
    /// Slot of `chain`, or kNoSlot.
    Slot find(std::uint64_t chain) const;
    /// `chain` must be absent.
    void insert(std::uint64_t chain, Slot slot);
    /// `chain` must be present.
    void erase(std::uint64_t chain);

   private:
    struct Entry {
      std::uint64_t chain = 0;
      Slot slot = kNoSlot;
    };
    std::size_t home(std::uint64_t chain) const {
      return static_cast<std::size_t>(chain >> shift_);
    }
    void grow();
    /// Stores `entry` in the first empty slot of its probe run.
    void place(const Entry& entry);

    std::vector<Entry> entries_;
    std::size_t mask_ = 0;
    int shift_ = 0;
    std::size_t size_ = 0;
  };

  /// Content identity of `request`'s block `depth`, or 0 if that block is
  /// not shareable (past the shared prefix of a sessionless request).
  std::uint64_t block_content(const Request& request, int depth) const;
  /// Walks the chain of `request`'s first `max_blocks` blocks while they
  /// are resident, calling `visit(slot)` on each. Returns how many matched.
  template <typename Visit>
  long walk_chain(const Request& request, long max_blocks,
                  Visit&& visit) const;
  /// Blocks a lookup may match: all but the prompt's last token.
  long max_match_blocks(const Request& request) const;
  /// Appends `slot` at the LRU tail with the next sequence number.
  void make_evictable(Slot slot);
  /// Takes `slot` off the LRU list; no-op when it is not on it.
  void unlink(Slot slot);
  /// Evicts the block in `slot` (must be an unpinned leaf).
  void evict_block(Slot slot);

  long capacity_blocks_;
  TokenCount block_size_;
  std::uint64_t next_seq_ = 1;
  std::vector<Block> slab_;
  std::vector<Slot> free_slots_;
  ChainIndex index_;
  /// LRU over unpinned leaves, oldest at the head. Appends always take
  /// next_seq_++, so head-to-tail order is ascending lru_seq.
  Slot lru_head_ = kNoSlot;
  Slot lru_tail_ = kNoSlot;
  long evictable_ = 0;
  PrefixCacheStats stats_;
  std::map<TenantId, PrefixCacheStats> tenant_stats_;
};

}  // namespace vidur
