#include "scheduler/policies.h"

#include "common/check.h"

namespace vidur {

// ------------------------------------------------------- FasterTransformer

void FasterTransformerScheduler::fill_batch(BatchSpec& batch, Seconds now) {
  if (running_.empty()) {
    // Admit the next group, reserving KV for the whole sequence up front
    // (FasterTransformer allocates max-length buffers statically).
    while (static_cast<int>(batch.items.size()) < config_.max_batch_size) {
      RequestState* r = peek_waiting();
      if (r == nullptr) break;
      if (admit_front(r->request.total_tokens(),
                      /*respect_watermark=*/false) == nullptr)
        break;
      add_prefill_item(batch, r, r->remaining_prefill(), now);
    }
    return;
  }
  // Group in progress: lockstep decode of every unfinished member, whose
  // KV was reserved at admission.
  add_decodes(batch, kNoTokenCap, /*allow_preemption=*/false, now);
}

// ------------------------------------------------------------------ Orca+

void OrcaScheduler::fill_batch(BatchSpec& batch, Seconds now) {
  // Prefill-prioritizing: admit new requests (whole prompt as one chunk),
  // then join every runnable decode the token cap still allows.
  const TokenCount tokens = admit_prompts(batch, /*respect_watermark=*/false,
                                          /*respect_peak=*/false, now);
  add_decodes(batch, config_.max_tokens_per_iteration - tokens,
              /*allow_preemption=*/true, now);
}

// ------------------------------------------------------------------- vLLM

void VllmScheduler::fill_batch(BatchSpec& batch, Seconds now) {
  // Eager prefill: while requests wait and memory (above the watermark)
  // allows, run a prefill-only batch, pausing decodes. The batch-size knob
  // caps *concurrent* sequences (vLLM's max_num_seqs).
  admit_prompts(batch, /*respect_watermark=*/true, /*respect_peak=*/false,
                now);
  if (!batch.items.empty()) return;  // prefill batch formed; decodes paused
  // Decode batch over every runnable request, preempting on OOM.
  add_decodes(batch, kNoTokenCap, /*allow_preemption=*/true, now);
}

// ---------------------------------------------------------------- Sarathi

void SarathiScheduler::fill_batch(BatchSpec& batch, Seconds now) {
  // Decodes first (they are never paused), then partially prefilled
  // requests, then new requests with their first chunk, all under one
  // chunk_size budget. The batch-size knob caps concurrent sequences
  // (max_num_seqs), not just per-iteration items.
  TokenCount budget = add_decodes(batch, config_.chunk_size,
                                  /*allow_preemption=*/true, now);
  budget = continue_chunks(batch, budget, now);
  admit_chunks(batch, budget, /*respect_watermark=*/true, now);
}

// --------------------------------------------------------------- LightLLM

void LightLlmScheduler::fill_batch(BatchSpec& batch, Seconds now) {
  // Conservative admission: after admitting, the pool must be able to hold
  // every running request grown to its maximum length, so decodes never
  // preempt.
  admit_prompts(batch, /*respect_watermark=*/false, /*respect_peak=*/true,
                now);
  add_decodes(batch, kNoTokenCap, /*allow_preemption=*/false, now);
}

// ---------------------------------------------------------------- factory

std::unique_ptr<ReplicaScheduler> make_replica_scheduler(
    const SchedulerConfig& config, const MemoryPlan& plan) {
  switch (config.kind) {
    case SchedulerKind::kFasterTransformer:
      return std::make_unique<FasterTransformerScheduler>(config, plan);
    case SchedulerKind::kOrca:
      return std::make_unique<OrcaScheduler>(config, plan);
    case SchedulerKind::kVllm:
      return std::make_unique<VllmScheduler>(config, plan);
    case SchedulerKind::kSarathi:
      return std::make_unique<SarathiScheduler>(config, plan);
    case SchedulerKind::kLightLlm:
      return std::make_unique<LightLlmScheduler>(config, plan);
  }
  throw Error("unhandled SchedulerKind");
}

}  // namespace vidur
