#include "scheduler/replica_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "kvcache/prefix_cache.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace vidur {

ReplicaScheduler::ReplicaScheduler(SchedulerConfig config, MemoryPlan plan)
    : config_(config),
      plan_(plan),
      block_manager_(plan.num_kv_blocks, plan.block_size),
      timeline_(std::make_shared<TokenTimeline>(1)) {
  config.validate();
}

void ReplicaScheduler::set_timeline(std::shared_ptr<TokenTimeline> timeline,
                                    int slot) {
  VIDUR_CHECK(timeline != nullptr && slot >= 0 &&
              slot < timeline->num_slots());
  timeline_ = std::move(timeline);
  timeline_slot_ = slot;
}

void ReplicaScheduler::enqueue(RequestState* request) {
  VIDUR_CHECK(request != nullptr);
  // A request that could never fit would deadlock the replica; surface the
  // misconfiguration instead (the capacity search treats it as infeasible).
  const long needed =
      block_manager_.blocks_for_tokens(request->request.total_tokens());
  VIDUR_CHECK_MSG(needed <= block_manager_.total_blocks(),
                  "request " << request->request.id << " ("
                             << request->request.total_tokens()
                             << " tokens) exceeds the replica KV pool of "
                             << plan_.max_kv_tokens() << " tokens");
  waiting_.push_back(request);
}

void ReplicaScheduler::schedule_into(BatchSpec& out, Seconds now) {
  obs_now_ = now;
  attach_prefix_cache();
  out.items.clear();
  fill_batch(out, now);
}

void ReplicaScheduler::attach_prefix_cache() {
  if (cache_ == nullptr) return;
  for (RequestState* r : waiting_) {
    if (r->in_flight) continue;
    attach_one(r);
  }
}

void ReplicaScheduler::attach_one(RequestState* r) {
  if (cache_ == nullptr || r->prefix_checked) return;
  r->prefix_checked = true;
  // Requests arriving with prior progress (disaggregated hand-off of a
  // completed prefill) keep it; the cache only serves cold prefills.
  if (r->prefill_done > 0 || r->kv_context > 0) return;
  const TokenCount matched = cache_->attach(r->request, r->cache_pinned);
  trace_emit(trace_, TraceEventKind::kCacheLookup, obs_now_, obs_self_,
             r->request.id, matched, r->request.prefill_tokens,
             matched > 0 ? 1 : 0);
  if (matched <= 0) return;
  // The matched prefix is resident in the cache pool: it is prefilled
  // KV context the request never allocates or computes itself.
  r->prefill_done = matched;
  r->kv_context = matched;
  r->kv_cached = matched;
}

void ReplicaScheduler::retain_prefix(RequestState* r) {
  if (cache_ == nullptr) return;
  const long donated =
      cache_->retain(r->request, r->kv_context, r->kv_cached, block_manager_);
  block_manager_.transfer_to_cache(r->kv_blocks, donated);
}

void ReplicaScheduler::unpin_prefix(RequestState* r) {
  if (cache_ != nullptr)
    cache_->unpin(r->request, r->kv_cached, r->cache_pinned);
}

void ReplicaScheduler::set_obs(ReplicaId self, TraceRecorder* trace,
                               Counter* preemptions, Counter* admissions) {
  obs_self_ = self;
  trace_ = trace;
  ctr_preemptions_ = preemptions;
  ctr_admissions_ = admissions;
}

std::vector<RequestState*> ReplicaScheduler::on_batch_end(
    const BatchSpec& batch, Seconds now) {
  obs_now_ = now;
  std::vector<RequestState*> finished;
  // Every token of this batch carries its end time, stored once, at the
  // first emission.
  std::uint32_t end_index = 0;
  bool end_stored = false;
  const auto emit_token = [&](RequestState* r) {
    if (!end_stored) {
      end_index = timeline_->push(timeline_slot_, now);
      end_stored = true;
    }
    r->record.token_times.append(timeline_, timeline_slot_, end_index, now);
  };
  for (const BatchItem& item : batch.items) {
    RequestState* r = item.state;
    VIDUR_CHECK_MSG(r != nullptr,
                    "batch completed with no owner for request "
                        << item.request);
    r->in_flight = false;
    // A preempted-and-restarted request may see its old batch complete after
    // the restart; that stale completion carries no progress.
    if (!r->admitted) continue;

    if (item.is_prefill) {
      r->prefill_done += item.q_tokens;
      r->kv_context += item.q_tokens;
      if (item.completes_prefill) {
        VIDUR_CHECK(r->prefill_complete());
        // Every prefill completion is traced (detail=1 marks a restarted
        // request re-completing) so the analysis engine sees re-prefill
        // work; the TTFT timestamp stays first-completion-only.
        trace_emit(trace_, TraceEventKind::kPrefillDone, now, obs_self_,
                   r->request.id,
                   static_cast<std::int64_t>(batch.items.size()), 0,
                   r->record.prefill_completed_time < 0 ? 0 : 1);
        if (r->record.prefill_completed_time < 0)
          r->record.prefill_completed_time = now;
        r->decode_done = 1;  // prefill emits the first output token
        emit_token(r);
      }
    } else {
      r->decode_done += 1;
      r->kv_context += 1;
      emit_token(r);
    }

    if (r->finished()) {
      r->record.completed_time = now;
      trace_emit(trace_, TraceEventKind::kCompleted, now, obs_self_,
                 r->request.id, r->record.num_restarts,
                 static_cast<std::int64_t>(batch.items.size()));
      // Donate the shareable prefix KV before dropping pins (so the matched
      // parent chain cannot be evicted mid-donation), then free whatever
      // the cache did not take.
      retain_prefix(r);
      unpin_prefix(r);
      block_manager_.release(r->kv_blocks);
      r->kv_cached = 0;
      r->admitted = false;
      running_.erase(std::find(running_.begin(), running_.end(), r));
      finished.push_back(r);
    }
  }
  return finished;
}

bool ReplicaScheduler::stable_decode(const BatchSpec& batch) const {
  // Items are distinct running requests, so equal counts mean all of them.
  if (!waiting_.empty() || batch.items.size() != running_.size())
    return false;
  for (const BatchItem& item : batch.items)
    if (item.is_prefill) return false;
  return true;
}

TokenCount ReplicaScheduler::decode_steps_left(const BatchSpec& batch) const {
  TokenCount steps = std::numeric_limits<TokenCount>::max();
  for (const BatchItem& item : batch.items) {
    const RequestState* r = item.state;
    // The iteration emitting the last token finishes the request.
    steps = std::min(steps, r->request.decode_tokens - r->decode_done - 1);
  }
  return steps;
}

bool ReplicaScheduler::next_decode_step(BatchSpec& batch) {
  // The blocks ensure_decode_memory() would grow for each item's next
  // token: the allocation cannot fail or touch the cache when they are all
  // free up front.
  long needed = 0;
  for (const BatchItem& item : batch.items) {
    const RequestState* r = item.state;
    const TokenCount target = item.kv_context + 2;
    if (target > kv_tokens_held(r))
      needed += block_manager_.blocks_for_tokens(target - r->kv_cached) -
                r->kv_blocks;
  }
  if (!block_manager_.can_allocate(needed)) return false;
  for (BatchItem& item : batch.items) {
    RequestState* r = item.state;
    const TokenCount target = ++item.kv_context + 1;
    if (target > kv_tokens_held(r))
      VIDUR_CHECK(block_manager_.grow_to(r->kv_blocks, target - r->kv_cached));
  }
  return true;
}

void ReplicaScheduler::end_decode_window(const BatchSpec& batch,
                                         TokenCount steps,
                                         std::uint32_t first_index,
                                         Seconds first_end, Seconds last_end,
                                         Seconds max_gap) {
  for (const BatchItem& item : batch.items) {
    RequestState* r = item.state;
    r->decode_done += steps;
    r->kv_context += steps;
    VIDUR_CHECK(r->kv_context == item.kv_context && !r->finished());
    r->record.token_times.append(timeline_, timeline_slot_, first_index,
                                 static_cast<std::uint32_t>(steps), first_end,
                                 last_end, max_gap);
  }
}

void ReplicaScheduler::extract(RequestState* request) {
  VIDUR_CHECK(request != nullptr);
  VIDUR_CHECK_MSG(request->admitted && !request->in_flight,
                  "extract() requires an admitted request that is not "
                  "currently executing");
  // The prefill replica keeps the conversation's prefix KV resident for
  // future turns; the extracted request re-allocates everything on its
  // decode replica (kv_cached resets — that cache is a different pool).
  retain_prefix(request);
  unpin_prefix(request);
  block_manager_.release(request->kv_blocks);
  request->kv_cached = 0;
  request->prefix_checked = false;
  request->admitted = false;
  running_.erase(std::find(running_.begin(), running_.end(), request));
}

std::vector<RequestState*> ReplicaScheduler::fail_all() {
  std::vector<RequestState*> out;
  out.reserve(running_.size() + waiting_.size());
  // Running first (admission order), then the queue front to back: the
  // deterministic casualty order every same-seed replay reproduces.
  for (RequestState* r : running_) out.push_back(r);
  for (RequestState* r : waiting_) out.push_back(r);
  for (RequestState* r : out) {
    unpin_prefix(r);
    block_manager_.release(r->kv_blocks);
    // Progress flags (admitted, prefill_done, ...) are intentionally left
    // as they were: the simulator classifies each casualty — queued handoff
    // vs. lost work — before resetting it for recovery.
  }
  running_.clear();
  waiting_.clear();
  return out;
}

void ReplicaScheduler::release_cached() {
  if (cache_ == nullptr) return;
  // fail_all()/drain left nothing pinned, so every resident block is a
  // reclaimable leaf eventually: evict until the pool reads empty.
  while (cache_->reclaim(1, block_manager_) > 0) {
  }
}

std::vector<RequestState*> ReplicaScheduler::take_waiting() {
  std::vector<RequestState*> out;
  std::deque<RequestState*> keep;
  for (RequestState* r : waiting_) {
    if (r->in_flight) {
      keep.push_back(r);
      continue;
    }
    // Cache-served progress does not travel: the matched blocks live in
    // THIS replica's pool. Prefilled hand-offs (decode re-homing) keep
    // their context — that KV migrates with them.
    if (!r->prefill_complete()) {
      unpin_prefix(r);
      r->prefill_done = 0;
      r->kv_context = 0;
      r->kv_cached = 0;
      r->prefix_checked = false;
    }
    out.push_back(r);
  }
  waiting_.swap(keep);
  return out;
}

RequestState* ReplicaScheduler::admit_front(TokenCount tokens,
                                            bool respect_watermark) {
  RequestState* r = peek_waiting();
  if (r == nullptr) return nullptr;
  // `tokens` is an absolute KV target; the request only allocates the cold
  // suffix beyond its cache-resident prefix.
  const TokenCount cold = std::max<TokenCount>(0, tokens - r->kv_cached);
  const long needed = block_manager_.blocks_for_tokens(cold) - r->kv_blocks;
  if (!make_room(needed, respect_watermark)) return nullptr;
  VIDUR_CHECK(block_manager_.grow_to(r->kv_blocks, cold));
  waiting_.pop_front();
  running_.push_back(r);
  r->admitted = true;
  if (ctr_admissions_ != nullptr) ctr_admissions_->inc();
  return r;
}

bool ReplicaScheduler::watermark_ok(long blocks_needed) const {
  const auto watermark = static_cast<long>(
      config_.watermark_fraction *
      static_cast<double>(block_manager_.total_blocks()));
  return block_manager_.free_blocks() - blocks_needed >= watermark;
}

bool ReplicaScheduler::make_room(long blocks, bool respect_watermark) {
  while (true) {
    if (block_manager_.can_allocate(blocks) &&
        (!respect_watermark || watermark_ok(blocks)))
      return true;
    // Active work beats retained prefixes: evict LRU cached blocks until
    // the allocation fits or the cache runs dry.
    if (cache_ == nullptr || cache_->reclaim(1, block_manager_) == 0)
      return false;
  }
}

bool ReplicaScheduler::ensure_decode_memory(RequestState* r,
                                            bool allow_preemption) {
  const TokenCount target = r->kv_context + 1;
  // Fast path: still inside the allocated blocks — no allocator touch.
  // Steady-state decodes only cross a block boundary every block_size
  // iterations.
  if (target <= kv_tokens_held(r)) return true;
  const TokenCount cold = target - r->kv_cached;
  const long needed = block_manager_.blocks_for_tokens(cold) - r->kv_blocks;
  if (make_room(needed, false) && block_manager_.grow_to(r->kv_blocks, cold))
    return true;
  if (!allow_preemption) return false;
  while (RequestState* victim = preempt_one()) {
    // The victim released its blocks; it may have been `r` itself, in which
    // case `r` no longer runs this iteration.
    if (victim == r) return false;
    if (block_manager_.grow_to(r->kv_blocks, target - r->kv_cached))
      return true;
  }
  return false;
}

bool ReplicaScheduler::ensure_prefill_memory(RequestState* r,
                                             TokenCount target_tokens) {
  if (target_tokens <= kv_tokens_held(r)) return true;
  const TokenCount cold =
      std::max<TokenCount>(0, target_tokens - r->kv_cached);
  const long needed = block_manager_.blocks_for_tokens(cold) - r->kv_blocks;
  return make_room(needed, false) &&
         block_manager_.grow_to(r->kv_blocks, cold);
}

void ReplicaScheduler::add_prefill_item(BatchSpec& batch, RequestState* r,
                                        TokenCount chunk, Seconds now) {
  VIDUR_CHECK(chunk > 0 && chunk <= r->remaining_prefill());
  BatchItem item;
  item.request = r->request.id;
  item.q_tokens = chunk;
  item.kv_context = r->kv_context;
  item.is_prefill = true;
  item.completes_prefill = chunk == r->remaining_prefill();
  item.state = r;
  batch.items.push_back(item);
  r->in_flight = true;
  mark_scheduled(r, now);
}

void ReplicaScheduler::add_decode_item(BatchSpec& batch, RequestState* r,
                                       Seconds now) {
  VIDUR_CHECK(r->prefill_complete() && !r->finished());
  BatchItem item;
  item.request = r->request.id;
  item.q_tokens = 1;
  item.kv_context = r->kv_context;
  item.is_prefill = false;
  item.state = r;
  batch.items.push_back(item);
  r->in_flight = true;
  mark_scheduled(r, now);
}

TokenCount ReplicaScheduler::admit_prompts(BatchSpec& batch,
                                           bool respect_watermark,
                                           bool respect_peak, Seconds now) {
  TokenCount tokens = 0;
  while (static_cast<int>(running_.size()) < config_.max_batch_size) {
    RequestState* r = peek_waiting();
    if (r == nullptr) break;
    const TokenCount prompt = r->remaining_prefill();
    if (tokens + prompt > config_.max_tokens_per_iteration) break;
    if (respect_peak &&
        peak_blocks_of_running() +
                block_manager_.blocks_for_tokens(r->request.total_tokens()) >
            block_manager_.total_blocks())
      break;
    if (admit_front(r->request.prefill_tokens, respect_watermark) == nullptr)
      break;
    tokens += prompt;
    add_prefill_item(batch, r, prompt, now);
  }
  return tokens;
}

TokenCount ReplicaScheduler::continue_chunks(BatchSpec& batch,
                                             TokenCount budget, Seconds now) {
  for (RequestState* r : running_) {
    if (budget <= 0 ||
        static_cast<int>(batch.items.size()) >= config_.max_batch_size)
      break;
    if (r->in_flight || r->prefill_complete()) continue;
    const TokenCount chunk =
        std::min<TokenCount>(budget, r->remaining_prefill());
    if (!ensure_prefill_memory(r, r->kv_context + chunk)) continue;
    add_prefill_item(batch, r, chunk, now);
    budget -= chunk;
  }
  return budget;
}

void ReplicaScheduler::admit_chunks(BatchSpec& batch, TokenCount budget,
                                    bool respect_watermark, Seconds now) {
  while (budget > 0 &&
         static_cast<int>(running_.size()) < config_.max_batch_size &&
         static_cast<int>(batch.items.size()) < config_.max_batch_size) {
    RequestState* r = peek_waiting();
    if (r == nullptr) break;
    const TokenCount chunk =
        std::min<TokenCount>(budget, r->remaining_prefill());
    // Absolute KV target: a cache-hit request already holds kv_context
    // resident tokens and only allocates its first cold chunk.
    if (admit_front(r->kv_context + chunk, respect_watermark) == nullptr)
      break;
    add_prefill_item(batch, r, chunk, now);
    budget -= chunk;
  }
}

TokenCount ReplicaScheduler::add_decodes(BatchSpec& batch, TokenCount budget,
                                         bool allow_preemption, Seconds now) {
  // ensure_decode_memory() may preempt and shrink running_: walk by index
  // and re-check the size every step.
  for (std::size_t i = 0; i < running_.size(); ++i) {
    if (budget < 1 ||
        static_cast<int>(batch.items.size()) >= config_.max_batch_size)
      break;
    RequestState* r = running_[i];
    if (r->in_flight || r->finished() || !r->prefill_complete()) continue;
    const bool fits = ensure_decode_memory(r, allow_preemption);
    if (!fits && allow_preemption) continue;  // preempted, or still no room
    VIDUR_CHECK_MSG(fits, "decode of request "
                              << r->request.id
                              << " ran out of KV blocks despite conservative "
                                 "admission");
    add_decode_item(batch, r, now);
    budget -= 1;
  }
  return budget;
}

long ReplicaScheduler::peak_blocks_of_running() const {
  long peak = 0;
  for (const RequestState* r : running_)
    peak += block_manager_.blocks_for_tokens(r->request.total_tokens());
  return peak;
}

void ReplicaScheduler::mark_scheduled(RequestState* r, Seconds now) {
  if (r->record.first_scheduled_time < 0) {
    r->record.first_scheduled_time = now;
    // The first schedule carries the queue-entry timestamp (integer
    // nanoseconds) so queue wait is measured, not inferred from arrival.
    const std::int64_t queued_ns =
        r->queue_entry_time >= 0
            ? std::llround(r->queue_entry_time * 1e9)
            : -1;
    trace_emit(trace_, TraceEventKind::kScheduled, now, obs_self_,
               r->request.id, queued_ns);
  } else if (r->resched_pending) {
    // Resume after a preemption restart: closes the stall interval for the
    // analysis engine (detail=1 distinguishes it from the TTFT edge).
    trace_emit(trace_, TraceEventKind::kScheduled, now, obs_self_,
               r->request.id, -1, 0, 1);
  }
  r->resched_pending = false;
}

RequestState* ReplicaScheduler::preempt_one() {
  // Lowest priority = latest arrival (highest id) among running requests
  // that are not currently executing.
  RequestState* victim = nullptr;
  for (RequestState* r : running_) {
    if (r->in_flight) continue;
    if (victim == nullptr || r->request.id > victim->request.id) victim = r;
  }
  if (victim == nullptr) return nullptr;
  trace_emit(trace_, TraceEventKind::kPreempted, obs_now_, obs_self_,
             victim->request.id);
  if (ctr_preemptions_ != nullptr) ctr_preemptions_->inc();
  block_manager_.release(victim->kv_blocks);
  unpin_prefix(victim);
  victim->restart();
  running_.erase(std::find(running_.begin(), running_.end(), victim));
  // Recomputed from scratch, at the head of the queue (vLLM semantics).
  waiting_.push_front(victim);
  // If the victim's prefix blocks are still resident (its own donation or a
  // session sibling's), re-attach them now — the admission pass that
  // triggered this preemption already ran attach_prefix_cache, and without
  // this the restart would re-charge the full prefill.
  attach_one(victim);
  return victim;
}

}  // namespace vidur
