#include "scheduler/disagg_policies.h"

#include "common/check.h"

namespace vidur {

// ----------------------------------------------------------- prefill role

void DisaggPrefillScheduler::fill_batch(BatchSpec& batch, Seconds now) {
  // Continue partially-prefilled requests first (FIFO progress), then admit
  // new prompts with their first chunk. Prefill replicas only ever hold
  // prompt KV, which is released at hand-off, so a watermark adds nothing
  // here.
  const TokenCount budget = continue_chunks(batch, config_.chunk_size, now);
  admit_chunks(batch, budget, /*respect_watermark=*/false, now);
}

// ------------------------------------------------------------ decode role

void DisaggDecodeScheduler::fill_batch(BatchSpec& batch, Seconds now) {
  // Admit migrated requests: allocate their already-transferred prompt KV
  // plus the next token, only while the pool can hold every admitted
  // request at its maximum length (no preemption ever).
  while (static_cast<int>(running_.size()) < config_.max_batch_size) {
    RequestState* r = peek_waiting();
    if (r == nullptr) break;
    VIDUR_CHECK_MSG(r->prefill_complete(),
                    "request " << r->request.id
                               << " reached a decode replica before its "
                                  "prefill completed");
    const long peak_after =
        peak_blocks_of_running() +
        block_manager_.blocks_for_tokens(r->request.total_tokens());
    if (peak_after > block_manager_.total_blocks()) break;
    if (admit_front(r->kv_context + 1, /*respect_watermark=*/false) == nullptr)
      break;
  }
  // Batch every runnable decode; admission guarantees memory.
  add_decodes(batch, kNoTokenCap, /*allow_preemption=*/false, now);
}

}  // namespace vidur
