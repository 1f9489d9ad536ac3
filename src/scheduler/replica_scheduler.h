// Replica scheduler (paper §4.5, second tier): owns batching and memory
// management for one model replica. Concrete policies (FasterTransformer,
// Orca+, vLLM, Sarathi-Serve, LightLLM and the two disaggregated roles)
// override the batch-formation hook, and each composes it from four shared
// steps that live here: whole-prompt admission, chunk continuation, chunk
// admission and the decode half. Sarathi is "decodes on chunk_size, then
// continue chunks, then admit chunks above the watermark"; Orca+ is "admit
// prompts, then decodes on what the token cap leaves". Only
// FasterTransformer's group admission and the decode role's migrated-
// request admission keep loops of their own. Admission, preemption and
// accounting helpers live here too.
#pragma once

#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "execution/batch_spec.h"
#include "scheduler/memory.h"
#include "scheduler/request_state.h"
#include "scheduler/scheduler_config.h"

namespace vidur {

class TraceRecorder;
class PrefixCache;
struct Counter;

class ReplicaScheduler {
 public:
  ReplicaScheduler(SchedulerConfig config, MemoryPlan plan);
  virtual ~ReplicaScheduler() = default;

  ReplicaScheduler(const ReplicaScheduler&) = delete;
  ReplicaScheduler& operator=(const ReplicaScheduler&) = delete;

  /// A new (or re-routed) request enters this replica's waiting queue.
  /// Throws vidur::Error if the request can never fit in the KV pool.
  void enqueue(RequestState* request);

  /// Form the next iteration's batch into caller-owned storage: clears
  /// `out` and fills it, reusing its item capacity (the simulator recycles
  /// in-flight slots so steady state forms batches without allocating).
  /// Performs admission/allocation, marks chosen requests in-flight and
  /// stamps first-schedule times. An empty batch means no runnable work
  /// right now.
  void schedule_into(BatchSpec& out, Seconds now);

  /// A batch finished its final pipeline stage: advance request states,
  /// release memory of finished requests. Returns the finished requests.
  std::vector<RequestState*> on_batch_end(const BatchSpec& batch,
                                          Seconds now);

  // ---- stable decode windows (Simulator::run_decode_window) ----

  /// True when `batch`, just formed by schedule_into(), decodes every
  /// running request while nothing waits. Every policy then forms the
  /// identical batch again, each item one token further along, for as long
  /// as no request finishes and the KV growth fits in the free blocks.
  bool stable_decode(const BatchSpec& batch) const;

  /// Iterations of the stable decode `batch` that can end without
  /// finishing any of its requests.
  TokenCount decode_steps_left(const BatchSpec& batch) const;

  /// The stable decode `batch` ended and the identical next iteration
  /// forms: every item's KV context grows by one token and the blocks its
  /// next token crosses into are allocated. Returns false, changing
  /// nothing, when those blocks are not all free (forming the iteration
  /// would reclaim cached blocks or preempt, which only schedule_into()
  /// does). The requests' own progress is left to end_decode_window().
  bool next_decode_step(BatchSpec& batch);

  /// A window ran `steps` iterations of the stable decode `batch` (now
  /// formed as the iteration after them), ending at batches first_index ..
  /// first_index + steps - 1 of this replica's timeline slot, the first at
  /// `first_end` and the last at `last_end`, with `max_gap` the largest gap
  /// between consecutive ones. Each request's decode progress, KV context
  /// and token run advance as `steps` on_batch_end() calls would have left
  /// them.
  void end_decode_window(const BatchSpec& batch, TokenCount steps,
                         std::uint32_t first_index, Seconds first_end,
                         Seconds last_end, Seconds max_gap);

  /// Remove an unfinished, admitted request from this replica, releasing its
  /// KV blocks (disaggregated serving: the simulator extracts a request once
  /// its prefill completes, then hands it to a decode replica).
  void extract(RequestState* request);

  /// Remove and return every queued-but-unstarted request (the waiting
  /// queue), leaving admitted/running work untouched. Elastic clusters
  /// re-route these through the GlobalScheduler when the replica starts
  /// draining, so the drain only has to finish work that actually began
  /// here. Requests whose stale preempted batch is still executing are
  /// kept (that batch still ends on this replica).
  std::vector<RequestState*> take_waiting();

  /// Replica failure (src/fault/): remove and return EVERY request bound to
  /// this replica — waiting and running alike, in deterministic order
  /// (running by admission, then waiting front to back). All KV blocks are
  /// released and cache pins dropped; per-request progress flags are left
  /// untouched so the simulator can classify each casualty (admitted work
  /// lost vs. queued handoff) before restarting it. The scheduler is empty
  /// afterwards.
  std::vector<RequestState*> fail_all();

  /// Tear down the replica's prefix-cache pool (decommission/failure): every
  /// resident cached block is evicted and returned to the BlockManager, so
  /// cluster-wide cached_blocks accounting cannot leak across scale-downs.
  void release_cached();

  int num_waiting() const { return static_cast<int>(waiting_.size()); }
  int num_running() const { return static_cast<int>(running_.size()); }
  /// Requests routed here and not yet completed (for LOR routing).
  int outstanding() const { return num_waiting() + num_running(); }
  bool has_work() const { return outstanding() > 0; }

  const BlockManager& blocks() const { return block_manager_; }
  const SchedulerConfig& config() const { return config_; }

  /// Attach observability (simulator-owned, src/obs/): `self` identifies
  /// this replica in trace records; the counters are shared across the
  /// fleet. All pointers are borrowed; a null trace disables the
  /// scheduler-level trace events, null counters disable counting.
  void set_obs(ReplicaId self, TraceRecorder* trace, Counter* preemptions,
               Counter* admissions);

  /// Attach this replica's prefix cache (simulator-owned, borrowed; null
  /// disables KV reuse). Every schedule_into() consults it for newly queued
  /// requests, charges only the cold prefill suffix on hits, retains
  /// completed requests' shareable KV, and reclaims cached blocks on
  /// demand before failing an allocation.
  void set_prefix_cache(PrefixCache* cache) { cache_ = cache; }

  /// Record token times on `slot` of the run's `timeline` instead of the
  /// private one-slot timeline a standalone scheduler starts with. Every
  /// batch that emits tokens stores its end time there once; each emitting
  /// request's TokenTimes extends its last run or opens a new one. The
  /// simulator binds each replica to its own slot.
  void set_timeline(std::shared_ptr<TokenTimeline> timeline, int slot);

 protected:
  /// Policy hook: append items to `batch` (and perform allocations).
  virtual void fill_batch(BatchSpec& batch, Seconds now) = 0;

  // ---- batch-formation steps the policies compose ----
  // Each step appends items to `batch`, never past config_.max_batch_size
  // items, and allocates the KV its items need.

  /// Token budget of a step that has no per-iteration token cap.
  static constexpr TokenCount kNoTokenCap =
      std::numeric_limits<TokenCount>::max();

  /// Admit waiting requests front to back, each with its whole remaining
  /// prompt as one chunk, while fewer than max_batch_size requests run and
  /// the prompts fit max_tokens_per_iteration. Optionally the allocation
  /// must leave the watermark free, and (`respect_peak`) the pool must hold
  /// every running request and the new one at their maximum lengths.
  /// Returns the prompt tokens added.
  TokenCount admit_prompts(BatchSpec& batch, bool respect_watermark,
                           bool respect_peak, Seconds now);

  /// Give partially prefilled running requests their next chunk out of
  /// `budget`, skipping a request whose chunk does not fit in KV. Returns
  /// the budget left.
  TokenCount continue_chunks(BatchSpec& batch, TokenCount budget,
                             Seconds now);

  /// Admit waiting requests front to back with their first chunk out of
  /// `budget`, while fewer than max_batch_size requests run, optionally
  /// leaving the watermark free.
  void admit_chunks(BatchSpec& batch, TokenCount budget,
                    bool respect_watermark, Seconds now);

  /// The decode half: one decode item per runnable running request (not in
  /// flight, not finished, prefill complete) in admission order, one token
  /// of `budget` each, until the budget is spent. With `allow_preemption`
  /// a request whose next token needs KV preempts (ensure_decode_memory)
  /// and is skipped if it still does not fit; without it, admission must
  /// have guaranteed the memory, and a miss fails a VIDUR_CHECK. Returns
  /// the budget left.
  TokenCount add_decodes(BatchSpec& batch, TokenCount budget,
                         bool allow_preemption, Seconds now);

  /// KV blocks every running request would hold at its maximum length (the
  /// conservative admission bound of LightLLM and the decode role).
  long peak_blocks_of_running() const;

  // ---- helpers shared by the policies ----

  /// Next waiting request, or nullptr.
  RequestState* peek_waiting() const {
    return waiting_.empty() ? nullptr : waiting_.front();
  }

  /// Admit the front waiting request with KV space for `tokens` total
  /// entries (an absolute KV target; cached prefix tokens are already
  /// resident and not re-allocated), honoring an optional watermark.
  /// Returns nullptr when blocked.
  RequestState* admit_front(TokenCount tokens, bool respect_watermark);

  /// Grow `r`'s KV allocation for its next decode token, preempting
  /// lower-priority requests if `allow_preemption`. Returns success.
  bool ensure_decode_memory(RequestState* r, bool allow_preemption);

  /// Grow `r`'s KV allocation to cover a prefill chunk ending at
  /// `target_tokens` cached entries. No preemption.
  bool ensure_prefill_memory(RequestState* r, TokenCount target_tokens);

  /// KV tokens `r` can hold without allocating: its cache-resident prefix
  /// plus its own blocks (the fast-path bound the ensure_* checks read).
  TokenCount kv_tokens_held(const RequestState* r) const {
    return r->kv_cached + r->kv_blocks * plan_.block_size;
  }

  /// Donate `r`'s shareable KV to the prefix cache (if any) and move the
  /// donated blocks from `r`'s allocation into the cache pool.
  void retain_prefix(RequestState* r);
  /// Drop `r`'s prefix-cache pins, if it holds any (idempotent).
  void unpin_prefix(RequestState* r);

  /// Append a prefill-chunk item for `r` (marks in-flight, stamps times).
  void add_prefill_item(BatchSpec& batch, RequestState* r, TokenCount chunk,
                        Seconds now);
  /// Append a decode item for `r`.
  void add_decode_item(BatchSpec& batch, RequestState* r, Seconds now);

  /// Stamp first-schedule time and emit the kScheduled trace record (first
  /// schedule with queue-entry payload, or a detail=1 resume record after a
  /// preemption restart).
  void mark_scheduled(RequestState* r, Seconds now);

  /// vLLM-style preempt-and-restart of the lowest-priority (latest-arrival)
  /// running request that is not in flight. Returns the victim or nullptr.
  RequestState* preempt_one();

  bool watermark_ok(long blocks_needed) const;

  /// True once `blocks` can be allocated (within the optional watermark),
  /// evicting LRU prefix-cache blocks on demand to get there.
  bool make_room(long blocks, bool respect_watermark);

  /// Consult the prefix cache for queued requests that have not been
  /// checked this admission: on a hit the matched prefix is marked as done
  /// prefill resident in the cache pool, so only the cold suffix is
  /// computed and allocated. Emits one kCacheLookup record per lookup.
  void attach_prefix_cache();

  /// Single-request form of attach_prefix_cache, used on the preemption
  /// restart path: a victim whose prefix blocks are still resident re-enters
  /// the queue with the cached prefix already attached instead of
  /// re-charging its full prefill.
  void attach_one(RequestState* r);

  SchedulerConfig config_;
  MemoryPlan plan_;
  BlockManager block_manager_;
  PrefixCache* cache_ = nullptr;  ///< borrowed; null = prefix caching off
  /// Where this replica's batch-end times go (see set_timeline).
  std::shared_ptr<TokenTimeline> timeline_;
  int timeline_slot_ = 0;
  std::deque<RequestState*> waiting_;
  std::vector<RequestState*> running_;  ///< admitted, unfinished

  // ---- observability (all optional; see set_obs) ----
  ReplicaId obs_self_ = -1;
  TraceRecorder* trace_ = nullptr;
  Counter* ctr_preemptions_ = nullptr;
  Counter* ctr_admissions_ = nullptr;
  /// preempt_one() has no clock argument; this mirrors the last `now` seen
  /// by schedule_into()/on_batch_end() so preemption records carry batch
  /// time.
  Seconds obs_now_ = 0.0;
};

/// Factory: constructs the policy named by `config.kind`.
std::unique_ptr<ReplicaScheduler> make_replica_scheduler(
    const SchedulerConfig& config, const MemoryPlan& plan);

}  // namespace vidur
