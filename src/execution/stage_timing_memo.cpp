#include "execution/stage_timing_memo.h"

#include <algorithm>
#include <bit>

namespace vidur {

StageTimingMemo::StageTimingMemo(std::size_t entries) {
  const std::size_t sets =
      std::bit_ceil(std::max<std::size_t>(entries, kWays)) / kWays;
  slots_ = std::make_unique<Slot[]>(sets * kWays);
  victims_ = std::make_unique<std::atomic<std::uint8_t>[]>(sets);
  set_mask_ = sets - 1;
}

void StageTimingMemo::pack(const Key& key, PackedKey& words) {
  const auto u32 = [](std::int32_t v) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
  };
  const auto u16 = [](std::int32_t v) {
    return static_cast<std::uint64_t>(static_cast<std::uint16_t>(v));
  };
  words[0] = u32(key.decodes) << 32 | u32(key.sampled);
  // TP >= 1, so a stored key never has word 1 == 0 (the empty marker).
  words[1] = u16(key.stage) << 32 | u16(key.tensor_parallel) << 16 |
             u16(key.pipeline_parallel);
  words[2] = static_cast<std::uint64_t>(key.q_tokens);
  words[3] = static_cast<std::uint64_t>(key.prefill_eq);
  words[4] = static_cast<std::uint64_t>(key.decode_kv_bucket);
}

std::size_t StageTimingMemo::set_of(const PackedKey& words) const {
  // splitmix-style finalizer over the folded key words.
  std::uint64_t h = 0;
  for (const std::uint64_t w : words) {
    h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
  }
  h ^= h >> 33;
  return static_cast<std::size_t>(h) & set_mask_;
}

bool StageTimingMemo::lookup(const Key& key, StageTiming* out) const {
  PackedKey words;
  pack(key, words);
  const Slot* set = &slots_[set_of(words) * kWays];
  for (std::size_t way = 0; way < kWays; ++way) {
    const Slot& slot = set[way];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (seq & 1) continue;  // a writer holds the slot
    bool match = true;
    for (std::size_t w = 0; w < kKeyWords && match; ++w)
      match = slot.key[w].load(std::memory_order_acquire) == words[w];
    if (!match) continue;
    const std::uint64_t compute =
        slot.compute_bits.load(std::memory_order_acquire);
    const std::uint64_t comm = slot.comm_bits.load(std::memory_order_acquire);
    // The acquire loads above keep this re-read after them; an unchanged
    // even sequence number means no write overlapped the read.
    if (slot.seq.load(std::memory_order_relaxed) != seq) return false;
    out->compute = std::bit_cast<Seconds>(compute);
    out->comm = std::bit_cast<Seconds>(comm);
    return true;
  }
  return false;
}

void StageTimingMemo::insert(const Key& key, const StageTiming& timing) {
  PackedKey words;
  pack(key, words);
  const std::size_t set = set_of(words);
  const std::size_t way =
      victims_[set].fetch_add(1, std::memory_order_relaxed) % kWays;
  Slot& slot = slots_[set * kWays + way];
  std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  if ((seq & 1) != 0 ||
      !slot.seq.compare_exchange_strong(seq, seq + 1,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed))
    return;  // another writer holds the victim: skip, the value is a cache
  // Release stores: a reader that sees any of them also sees the odd
  // sequence number above, so its validation fails.
  for (std::size_t w = 0; w < kKeyWords; ++w)
    slot.key[w].store(words[w], std::memory_order_release);
  slot.compute_bits.store(std::bit_cast<std::uint64_t>(timing.compute),
                          std::memory_order_release);
  slot.comm_bits.store(std::bit_cast<std::uint64_t>(timing.comm),
                       std::memory_order_release);
  slot.seq.store(seq + 2, std::memory_order_release);
}

}  // namespace vidur
