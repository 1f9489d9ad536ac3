// Differential tests for batch formation. Every production policy
// (src/scheduler/policies.cpp, disagg_policies.cpp) composes its batch from
// the shared ReplicaScheduler steps (admit_prompts, continue_chunks,
// admit_chunks, add_decodes). Each is driven in lockstep with a reference
// policy below that writes the same policy out as its own loops, one body
// per policy, sharing none of those steps with production. Both
// sides see the same seeded arrivals, the same batch completions and the
// same prefill→decode hand-offs; every batch item and the scheduler state
// after every formation and completion must match.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "kvcache/prefix_cache.h"
#include "obs/registry.h"
#include "scheduler/disagg_policies.h"
#include "scheduler/policies.h"

namespace vidur {
namespace {

// ---------------------------------------------------- reference policies

class ReferencePolicy : public ReplicaScheduler {
 public:
  using ReplicaScheduler::ReplicaScheduler;

 protected:
  /// Blocks of every running request at its maximum length.
  long reference_peak_blocks() const {
    long peak = 0;
    for (const RequestState* r : running_)
      peak += block_manager_.blocks_for_tokens(r->request.total_tokens());
    return peak;
  }
};

class ReferenceFasterTransformer final : public ReferencePolicy {
 public:
  using ReferencePolicy::ReferencePolicy;

 protected:
  void fill_batch(BatchSpec& batch, Seconds now) override {
    if (running_.empty()) {
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
    for (RequestState* r : running_) {
      if (r->in_flight || r->finished() || !r->prefill_complete()) continue;
      add_decode_item(batch, r, now);
    }
  }
};

class ReferenceOrca final : public ReferencePolicy {
 public:
  using ReferencePolicy::ReferencePolicy;

 protected:
  void fill_batch(BatchSpec& batch, Seconds now) override {
    TokenCount tokens = 0;
    int slots = config_.max_batch_size - static_cast<int>(running_.size());
    while (slots > 0) {
      RequestState* r = peek_waiting();
      if (r == nullptr) break;
      if (tokens + r->remaining_prefill() > config_.max_tokens_per_iteration)
        break;
      if (admit_front(r->request.prefill_tokens,
                      /*respect_watermark=*/false) == nullptr)
        break;
      tokens += r->remaining_prefill();
      add_prefill_item(batch, r, r->remaining_prefill(), now);
      --slots;
    }
    for (std::size_t i = 0; i < running_.size(); ++i) {
      if (i >= running_.size()) break;
      RequestState* r = running_[i];
      if (static_cast<int>(batch.items.size()) >= config_.max_batch_size)
        break;
      if (r->in_flight || r->finished() || !r->prefill_complete()) continue;
      if (tokens + 1 > config_.max_tokens_per_iteration) break;
      if (!ensure_decode_memory(r, /*allow_preemption=*/true)) continue;
      tokens += 1;
      add_decode_item(batch, r, now);
    }
  }
};

class ReferenceVllm final : public ReferencePolicy {
 public:
  using ReferencePolicy::ReferencePolicy;

 protected:
  void fill_batch(BatchSpec& batch, Seconds now) override {
    TokenCount tokens = 0;
    while (static_cast<int>(running_.size()) < config_.max_batch_size) {
      RequestState* r = peek_waiting();
      if (r == nullptr) break;
      if (tokens + r->remaining_prefill() > config_.max_tokens_per_iteration)
        break;
      if (admit_front(r->request.prefill_tokens,
                      /*respect_watermark=*/true) == nullptr)
        break;
      tokens += r->remaining_prefill();
      add_prefill_item(batch, r, r->remaining_prefill(), now);
    }
    if (!batch.items.empty()) return;
    for (std::size_t i = 0; i < running_.size(); ++i) {
      if (i >= running_.size()) break;
      RequestState* r = running_[i];
      if (static_cast<int>(batch.items.size()) >= config_.max_batch_size)
        break;
      if (r->in_flight || r->finished() || !r->prefill_complete()) continue;
      if (!ensure_decode_memory(r, /*allow_preemption=*/true)) continue;
      add_decode_item(batch, r, now);
    }
  }
};

class ReferenceSarathi final : public ReferencePolicy {
 public:
  using ReferencePolicy::ReferencePolicy;

 protected:
  void fill_batch(BatchSpec& batch, Seconds now) override {
    TokenCount budget = config_.chunk_size;
    for (std::size_t i = 0; i < running_.size(); ++i) {
      if (i >= running_.size()) break;
      RequestState* r = running_[i];
      if (budget <= 0 ||
          static_cast<int>(batch.items.size()) >= config_.max_batch_size)
        break;
      if (r->in_flight || r->finished() || !r->prefill_complete()) continue;
      if (!ensure_decode_memory(r, /*allow_preemption=*/true)) continue;
      add_decode_item(batch, r, now);
      budget -= 1;
    }
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
    while (budget > 0 &&
           static_cast<int>(running_.size()) < config_.max_batch_size &&
           static_cast<int>(batch.items.size()) < config_.max_batch_size) {
      RequestState* r = peek_waiting();
      if (r == nullptr) break;
      const TokenCount chunk =
          std::min<TokenCount>(budget, r->remaining_prefill());
      if (admit_front(r->kv_context + chunk, /*respect_watermark=*/true) ==
          nullptr)
        break;
      add_prefill_item(batch, r, chunk, now);
      budget -= chunk;
    }
  }
};

class ReferenceLightLlm final : public ReferencePolicy {
 public:
  using ReferencePolicy::ReferencePolicy;

 protected:
  void fill_batch(BatchSpec& batch, Seconds now) override {
    TokenCount tokens = 0;
    while (static_cast<int>(running_.size()) < config_.max_batch_size) {
      RequestState* r = peek_waiting();
      if (r == nullptr) break;
      if (tokens + r->remaining_prefill() > config_.max_tokens_per_iteration)
        break;
      const long peak_after =
          reference_peak_blocks() +
          block_manager_.blocks_for_tokens(r->request.total_tokens());
      if (peak_after > block_manager_.total_blocks()) break;
      if (admit_front(r->request.prefill_tokens,
                      /*respect_watermark=*/false) == nullptr)
        break;
      tokens += r->remaining_prefill();
      add_prefill_item(batch, r, r->remaining_prefill(), now);
    }
    for (RequestState* r : running_) {
      if (static_cast<int>(batch.items.size()) >= config_.max_batch_size)
        break;
      if (r->in_flight || r->finished() || !r->prefill_complete()) continue;
      VIDUR_CHECK(ensure_decode_memory(r, /*allow_preemption=*/false));
      add_decode_item(batch, r, now);
    }
  }
};

class ReferenceDisaggPrefill final : public ReferencePolicy {
 public:
  using ReferencePolicy::ReferencePolicy;

 protected:
  void fill_batch(BatchSpec& batch, Seconds now) override {
    TokenCount budget = config_.chunk_size;
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
    while (budget > 0 &&
           static_cast<int>(running_.size()) < config_.max_batch_size &&
           static_cast<int>(batch.items.size()) < config_.max_batch_size) {
      RequestState* r = peek_waiting();
      if (r == nullptr) break;
      const TokenCount chunk =
          std::min<TokenCount>(budget, r->remaining_prefill());
      if (admit_front(r->kv_context + chunk, /*respect_watermark=*/false) ==
          nullptr)
        break;
      add_prefill_item(batch, r, chunk, now);
      budget -= chunk;
    }
  }
};

class ReferenceDisaggDecode final : public ReferencePolicy {
 public:
  using ReferencePolicy::ReferencePolicy;

 protected:
  void fill_batch(BatchSpec& batch, Seconds now) override {
    while (static_cast<int>(running_.size()) < config_.max_batch_size) {
      RequestState* r = peek_waiting();
      if (r == nullptr) break;
      VIDUR_CHECK(r->prefill_complete());
      const long peak_after =
          reference_peak_blocks() +
          block_manager_.blocks_for_tokens(r->request.total_tokens());
      if (peak_after > block_manager_.total_blocks()) break;
      if (admit_front(r->kv_context + 1, /*respect_watermark=*/false) ==
          nullptr)
        break;
    }
    for (RequestState* r : running_) {
      if (static_cast<int>(batch.items.size()) >= config_.max_batch_size)
        break;
      if (r->in_flight || r->finished()) continue;
      VIDUR_CHECK(ensure_decode_memory(r, /*allow_preemption=*/false));
      add_decode_item(batch, r, now);
    }
  }
};

// ------------------------------------------------------------- scenarios

/// Replica roles: a colocated replica runs `kind`; a disaggregated pair
/// runs the prefill role on replica 0 and the decode role on replica 1.
struct Scenario {
  const char* name = "";
  SchedulerKind kind = SchedulerKind::kVllm;
  bool disagg = false;
  int max_batch_size = 16;
  TokenCount chunk_size = 64;
  TokenCount max_tokens_per_iteration = 4096;
  double watermark_fraction = 0.01;
  long kv_blocks = 200;
  long decode_kv_blocks = 200;  ///< decode role's pool (disagg only)
  long cache_blocks = 0;        ///< prefix cache per replica; 0: none
  /// Batches a replica keeps in flight (2 models a two-stage pipeline,
  /// whose next batch forms while the previous one runs).
  int pipeline_depth = 1;

  // ---- workload ----
  int requests = 60;
  int max_arrival_gap = 4;  ///< steps between consecutive arrivals
  TokenCount min_prefill = 8;
  TokenCount max_prefill = 200;
  TokenCount max_decode = 40;
  double session_share = 0.0;  ///< requests that continue an earlier session
  double shared_prefix_share = 0.0;  ///< requests with a common system prompt

  // ---- what the run must exercise (summed over the seeds) ----
  bool expect_preemptions = false;
  bool expect_cache_hits = false;
  bool expect_handoffs = false;
  bool expect_decodes_left_out = false;  ///< a runnable decode missed a batch
                                         ///< that had room for it
};

/// gtest prints a parameter in the test's listed name; the scenario's name
/// keeps that stable (its raw bytes hold a pointer).
void PrintTo(const Scenario& sc, std::ostream* os) { *os << sc.name; }

constexpr TokenCount kBlockSize = 16;

SchedulerConfig config_of(const Scenario& sc) {
  SchedulerConfig config;
  config.kind = sc.kind;
  config.max_batch_size = sc.max_batch_size;
  config.chunk_size = sc.chunk_size;
  config.max_tokens_per_iteration = sc.max_tokens_per_iteration;
  config.watermark_fraction = sc.watermark_fraction;
  return config;
}

MemoryPlan plan_of(long blocks) {
  MemoryPlan plan;
  plan.num_kv_blocks = blocks;
  plan.block_size = kBlockSize;
  return plan;
}

struct Arrival {
  int step = 0;
  Request request;
};

/// Seeded arrivals: ids in arrival order, every request fits every pool it
/// can reach, and no prompt exceeds the per-iteration token cap (a
/// whole-prompt policy could never admit it).
std::vector<Arrival> make_arrivals(const Scenario& sc, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto uniform = [&](TokenCount lo, TokenCount hi) {
    return std::uniform_int_distribution<TokenCount>(lo, hi)(rng);
  };
  const auto chance = [&](double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
  };
  long pool = sc.kv_blocks;
  if (sc.disagg) pool = std::min(pool, sc.decode_kv_blocks);
  const TokenCount max_total = pool * kBlockSize;
  const TokenCount max_prompt =
      std::min(sc.max_prefill, sc.max_tokens_per_iteration);

  std::vector<Arrival> out;
  int step = 0;
  for (int i = 0; i < sc.requests; ++i) {
    step += static_cast<int>(uniform(0, sc.max_arrival_gap));
    Request r;
    r.id = i;
    r.arrival_time = 0.01 * step;
    r.decode_tokens = uniform(1, sc.max_decode);
    r.prefill_tokens = uniform(sc.min_prefill, max_prompt);
    r.session = i;
    if (!out.empty() && chance(sc.session_share)) {
      // Next turn of an earlier conversation: its prompt extends that
      // turn's whole context.
      const Request& prev = out[static_cast<std::size_t>(
                                    uniform(0, static_cast<TokenCount>(
                                                   out.size() - 1)))]
                                .request;
      const TokenCount prompt = prev.total_tokens() + uniform(1, 48);
      if (prompt <= max_prompt && prompt + r.decode_tokens <= max_total) {
        r.session = prev.session;
        r.turn = prev.turn + 1;
        r.prefill_tokens = prompt;
      }
    }
    if (sc.session_share == 0.0) r.session = -1;
    if (chance(sc.shared_prefix_share) && r.prefill_tokens > 3 * kBlockSize) {
      r.prefix_group = 7;
      r.shared_prefix_tokens = 3 * kBlockSize;
    }
    r.decode_tokens = std::min(r.decode_tokens, max_total - r.prefill_tokens);
    out.push_back(Arrival{step, r});
  }
  return out;
}

// ---------------------------------------------------------------- sides

struct Replica {
  std::unique_ptr<ReplicaScheduler> scheduler;
  std::unique_ptr<PrefixCache> cache;
  Counter preemptions;
  Counter admissions;
  std::deque<BatchSpec> in_flight;
};

/// One side of the lockstep run: its replicas and its copy of every
/// request's state (indexed by request id).
struct Side {
  std::vector<std::unique_ptr<Replica>> replicas;
  std::vector<std::unique_ptr<RequestState>> states;
};

std::unique_ptr<ReplicaScheduler> make_policy(const Scenario& sc, int role,
                                              bool reference) {
  const SchedulerConfig config = config_of(sc);
  if (sc.disagg) {
    if (role == 0) {
      if (reference)
        return std::make_unique<ReferenceDisaggPrefill>(config,
                                                        plan_of(sc.kv_blocks));
      return std::make_unique<DisaggPrefillScheduler>(config,
                                                      plan_of(sc.kv_blocks));
    }
    const MemoryPlan plan = plan_of(sc.decode_kv_blocks);
    if (reference) return std::make_unique<ReferenceDisaggDecode>(config, plan);
    return std::make_unique<DisaggDecodeScheduler>(config, plan);
  }
  const MemoryPlan plan = plan_of(sc.kv_blocks);
  if (!reference) return make_replica_scheduler(config, plan);
  switch (sc.kind) {
    case SchedulerKind::kFasterTransformer:
      return std::make_unique<ReferenceFasterTransformer>(config, plan);
    case SchedulerKind::kOrca:
      return std::make_unique<ReferenceOrca>(config, plan);
    case SchedulerKind::kVllm:
      return std::make_unique<ReferenceVllm>(config, plan);
    case SchedulerKind::kSarathi:
      return std::make_unique<ReferenceSarathi>(config, plan);
    case SchedulerKind::kLightLlm:
      return std::make_unique<ReferenceLightLlm>(config, plan);
  }
  throw Error("unhandled SchedulerKind");
}

Side make_side(const Scenario& sc, bool reference) {
  Side side;
  const int replicas = sc.disagg ? 2 : 1;
  // One timeline, a slot per replica, as the simulator binds them: a
  // migrated request's token times continue on the decode replica's slot.
  auto timeline = std::make_shared<TokenTimeline>(replicas);
  for (int k = 0; k < replicas; ++k) {
    auto replica = std::make_unique<Replica>();
    replica->scheduler = make_policy(sc, k, reference);
    replica->scheduler->set_obs(k, nullptr, &replica->preemptions,
                                &replica->admissions);
    replica->scheduler->set_timeline(timeline, k);
    // The decode role serves migrated requests only; the cache serves
    // cold prefills.
    if (sc.cache_blocks > 0 && !(sc.disagg && k == 1)) {
      replica->cache = std::make_unique<PrefixCache>(sc.cache_blocks,
                                                     kBlockSize);
      replica->scheduler->set_prefix_cache(replica->cache.get());
    }
    side.replicas.push_back(std::move(replica));
  }
  return side;
}

void enqueue(Side& side, const Request& request, Seconds now) {
  auto state = std::make_unique<RequestState>();
  state->request = request;
  state->replica = 0;
  state->queue_entry_time = now;
  state->record.id = request.id;
  state->record.arrival_time = request.arrival_time;
  RequestState* r = state.get();
  side.states.push_back(std::move(state));
  side.replicas[0]->scheduler->enqueue(r);
}

/// The simulator's prefill→decode hand-off (Simulator::migrate_prefilled
/// and on_migrated, without the transfer delay): every request the batch
/// finished prefilling and that still has tokens to decode leaves the
/// prefill replica and queues on the decode replica.
int hand_off(Side& side, const BatchSpec& batch, Seconds now) {
  int moved = 0;
  for (const BatchItem& item : batch.items) {
    RequestState* r = item.state;
    if (!item.completes_prefill || !r->admitted || !r->prefill_complete() ||
        r->finished())
      continue;
    side.replicas[0]->scheduler->extract(r);
    r->replica = 1;
    r->queue_entry_time = now;
    r->resched_pending = true;
    side.replicas[1]->scheduler->enqueue(r);
    ++moved;
  }
  return moved;
}

// ----------------------------------------------------------- comparison

std::string diff_batches(const BatchSpec& a, const BatchSpec& b) {
  std::ostringstream out;
  if (a.items.size() != b.items.size()) {
    out << "batch sizes " << a.items.size() << " vs " << b.items.size()
        << "; ";
    return out.str();
  }
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    const BatchItem& x = a.items[i];
    const BatchItem& y = b.items[i];
    if (x.request != y.request || x.q_tokens != y.q_tokens ||
        x.kv_context != y.kv_context || x.is_prefill != y.is_prefill ||
        x.completes_prefill != y.completes_prefill ||
        x.state->request.id != x.request || y.state->request.id != y.request) {
      out << "item " << i << ": request " << x.request << "/" << y.request
          << " q " << x.q_tokens << "/" << y.q_tokens << " kv "
          << x.kv_context << "/" << y.kv_context << " prefill "
          << x.is_prefill << "/" << y.is_prefill << " completes "
          << x.completes_prefill << "/" << y.completes_prefill << "; ";
      return out.str();
    }
  }
  return {};
}

std::string diff_requests(const RequestState& x, const RequestState& y) {
  std::ostringstream out;
#define VIDUR_DIFF_FIELD(field)                                          \
  if (!(x.field == y.field))                                             \
    out << "request " << x.request.id << " " #field " " << x.field << " vs " \
        << y.field << "; ";
  VIDUR_DIFF_FIELD(replica)
  VIDUR_DIFF_FIELD(prefill_done)
  VIDUR_DIFF_FIELD(decode_done)
  VIDUR_DIFF_FIELD(kv_context)
  VIDUR_DIFF_FIELD(kv_blocks)
  VIDUR_DIFF_FIELD(kv_cached)
  VIDUR_DIFF_FIELD(prefix_checked)
  VIDUR_DIFF_FIELD(cache_pinned)
  VIDUR_DIFF_FIELD(in_flight)
  VIDUR_DIFF_FIELD(admitted)
  VIDUR_DIFF_FIELD(resched_pending)
  VIDUR_DIFF_FIELD(record.num_restarts)
  VIDUR_DIFF_FIELD(record.first_scheduled_time)
  VIDUR_DIFF_FIELD(record.prefill_completed_time)
  VIDUR_DIFF_FIELD(record.completed_time)
  VIDUR_DIFF_FIELD(record.token_times.size())
  VIDUR_DIFF_FIELD(record.token_times.worst_gap())
#undef VIDUR_DIFF_FIELD
  return out.str();
}

std::string diff_sides(const Side& a, const Side& b) {
  std::ostringstream out;
  for (std::size_t k = 0; k < a.replicas.size(); ++k) {
    const Replica& p = *a.replicas[k];
    const Replica& q = *b.replicas[k];
    const ReplicaScheduler& s = *p.scheduler;
    const ReplicaScheduler& t = *q.scheduler;
    if (s.num_waiting() != t.num_waiting() ||
        s.num_running() != t.num_running() ||
        s.blocks().used_blocks() != t.blocks().used_blocks() ||
        s.blocks().cached_blocks() != t.blocks().cached_blocks() ||
        p.preemptions.value != q.preemptions.value ||
        p.admissions.value != q.admissions.value ||
        (p.cache && !(p.cache->stats() == q.cache->stats())))
      out << "replica " << k << ": waiting " << s.num_waiting() << "/"
          << t.num_waiting() << " running " << s.num_running() << "/"
          << t.num_running() << " used " << s.blocks().used_blocks() << "/"
          << t.blocks().used_blocks() << " cached "
          << s.blocks().cached_blocks() << "/" << t.blocks().cached_blocks()
          << " preemptions " << p.preemptions.value << "/"
          << q.preemptions.value << " admissions " << p.admissions.value
          << "/" << q.admissions.value << "; ";
  }
  for (std::size_t i = 0; i < a.states.size(); ++i)
    out << diff_requests(*a.states[i], *b.states[i]);
  return out.str();
}

// ------------------------------------------------------------- lockstep

/// What one scenario exercised, summed over its seeds.
struct Tally {
  long batches = 0;
  long items = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t cache_hits = 0;
  long handoffs = 0;
  long decodes_left_out = 0;
};

/// Runnable decodes (admitted, prefill done, not finished, not in flight)
/// that `batch`, just formed with room to spare, left out.
long decodes_left_out(const Side& side, int replica, const BatchSpec& batch,
                      int max_batch_size) {
  if (static_cast<int>(batch.items.size()) >= max_batch_size) return 0;
  long left = 0;
  for (const auto& r : side.states)
    if (r->replica == replica && r->admitted && !r->in_flight &&
        r->prefill_complete() && !r->finished())
      ++left;
  return left;
}

/// Drive both sides through one seeded run. Returns the first difference,
/// or an empty string when every batch and state matched to the end.
std::string run_lockstep(const Scenario& sc, std::uint64_t seed,
                         Tally& tally) {
  const std::vector<Arrival> arrivals = make_arrivals(sc, seed);
  Side prod = make_side(sc, /*reference=*/false);
  Side ref = make_side(sc, /*reference=*/true);
  std::mt19937_64 coin(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::size_t next = 0;
  constexpr int kMaxSteps = 200000;
  for (int step = 0;; ++step) {
    if (step == kMaxSteps) return "no progress after " +
                                  std::to_string(kMaxSteps) + " steps";
    const Seconds now = 0.01 * step;
    for (; next < arrivals.size() && arrivals[next].step <= step; ++next) {
      enqueue(prod, arrivals[next].request, now);
      enqueue(ref, arrivals[next].request, now);
    }
    bool busy = next < arrivals.size();
    for (std::size_t k = 0; k < prod.replicas.size(); ++k) {
      Replica& p = *prod.replicas[k];
      Replica& q = *ref.replicas[k];
      const auto where = [&] {
        return "seed " + std::to_string(seed) + " step " +
               std::to_string(step) + " replica " + std::to_string(k);
      };

      BatchSpec a;
      BatchSpec b;
      p.scheduler->schedule_into(a, now);
      q.scheduler->schedule_into(b, now);
      std::string diff = diff_batches(a, b) + diff_sides(prod, ref);
      if (!diff.empty()) return where() + " after formation: " + diff;
      const bool formed = !a.empty();
      if (formed) {
        ++tally.batches;
        tally.items += static_cast<long>(a.items.size());
        tally.decodes_left_out += decodes_left_out(
            prod, static_cast<int>(k), a, sc.max_batch_size);
        p.in_flight.push_back(std::move(a));
        q.in_flight.push_back(std::move(b));
      }

      // End the oldest batch when the pipeline is full, when nothing new
      // formed, or at random; then maybe the next one too, so a formation
      // can see the members of several batches at once.
      const auto flip = [&](int odds) {
        return std::uniform_int_distribution<int>(0, odds - 1)(coin) == 0;
      };
      bool end = !p.in_flight.empty() &&
                 (!formed ||
                  static_cast<int>(p.in_flight.size()) >= sc.pipeline_depth ||
                  flip(4));
      for (int ended = 0; end; end = !p.in_flight.empty() && flip(3)) {
        const Seconds end_time = now + 0.001 * ++ended;
        const BatchSpec x = std::move(p.in_flight.front());
        const BatchSpec y = std::move(q.in_flight.front());
        p.in_flight.pop_front();
        q.in_flight.pop_front();
        const std::vector<RequestState*> fx =
            p.scheduler->on_batch_end(x, end_time);
        const std::vector<RequestState*> fy =
            q.scheduler->on_batch_end(y, end_time);
        if (fx.size() != fy.size())
          return where() + ": finished " + std::to_string(fx.size()) +
                 " vs " + std::to_string(fy.size());
        for (std::size_t i = 0; i < fx.size(); ++i)
          if (fx[i]->request.id != fy[i]->request.id)
            return where() + ": finished order differs";
        if (sc.disagg && k == 0) {
          const int moved = hand_off(prod, x, end_time);
          if (moved != hand_off(ref, y, end_time))
            return where() + ": hand-offs differ";
          tally.handoffs += moved;
        }
        diff = diff_sides(prod, ref);
        if (!diff.empty()) return where() + " after batch end: " + diff;
      }
      busy = busy || p.scheduler->has_work() || !p.in_flight.empty();
    }
    if (!busy) break;
  }
  for (const auto& r : prod.states)
    if (!r->finished())
      return "request " + std::to_string(r->request.id) + " never finished";
  for (const auto& replica : prod.replicas) {
    tally.preemptions += replica->preemptions.value;
    if (replica->cache) tally.cache_hits += replica->cache->stats().hits;
  }
  return {};
}

class BatchFormationDifferential : public ::testing::TestWithParam<Scenario> {
};

TEST_P(BatchFormationDifferential, MatchesReferencePolicyInLockstep) {
  const Scenario& sc = GetParam();
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    ASSERT_EQ(run_lockstep(sc, seed, tally), "") << sc.name;
  EXPECT_GT(tally.batches, 0);
  if (sc.expect_preemptions) {
    EXPECT_GT(tally.preemptions, 0u);
  }
  if (sc.expect_cache_hits) {
    EXPECT_GT(tally.cache_hits, 0u);
  }
  if (sc.expect_handoffs) {
    EXPECT_GT(tally.handoffs, 0);
  }
  if (sc.expect_decodes_left_out) {
    EXPECT_GT(tally.decodes_left_out, 0);
  }
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  {
    // Groups that fill a small pool; lockstep decodes under a pipeline.
    Scenario sc;
    sc.name = "faster_transformer";
    sc.kind = SchedulerKind::kFasterTransformer;
    sc.max_batch_size = 6;
    sc.kv_blocks = 80;
    sc.pipeline_depth = 2;
    out.push_back(sc);
  }
  {
    // A token cap below the prompts plus decodes: the decode half runs on
    // what admission leaves, and KV pressure preempts.
    Scenario sc;
    sc.name = "orca_token_cap_pressure";
    sc.kind = SchedulerKind::kOrca;
    sc.max_batch_size = 24;
    sc.max_tokens_per_iteration = 160;
    sc.kv_blocks = 48;
    sc.max_arrival_gap = 1;
    sc.max_prefill = 150;
    sc.expect_preemptions = true;
    sc.expect_decodes_left_out = true;
    out.push_back(sc);
  }
  {
    // Watermarked eager prefills over a cached, contended pool.
    Scenario sc;
    sc.name = "vllm_watermark_cache_pressure";
    sc.kind = SchedulerKind::kVllm;
    sc.max_batch_size = 12;
    sc.watermark_fraction = 0.1;
    sc.kv_blocks = 60;
    sc.cache_blocks = 16;
    sc.max_arrival_gap = 2;
    sc.session_share = 0.5;
    sc.shared_prefix_share = 0.3;
    sc.max_prefill = 260;
    sc.expect_preemptions = true;
    sc.expect_cache_hits = true;
    out.push_back(sc);
  }
  {
    // A chunk budget smaller than the decode count: a deep pipeline whose
    // batches end together returns more decodes than one budget holds.
    Scenario sc;
    sc.name = "sarathi_small_chunks";
    sc.kind = SchedulerKind::kSarathi;
    sc.max_batch_size = 24;
    sc.chunk_size = 8;
    sc.watermark_fraction = 0.1;
    sc.kv_blocks = 120;
    sc.pipeline_depth = 3;
    sc.max_arrival_gap = 1;
    sc.max_decode = 60;
    sc.expect_decodes_left_out = true;
    out.push_back(sc);
  }
  {
    // Chunked prefills, a watermark and a prefix cache in a pool too small
    // for the load: admission reclaims cached blocks and decodes preempt.
    Scenario sc;
    sc.name = "sarathi_cache_pressure";
    sc.kind = SchedulerKind::kSarathi;
    sc.max_batch_size = 16;
    sc.chunk_size = 64;
    sc.watermark_fraction = 0.1;
    sc.kv_blocks = 48;
    sc.cache_blocks = 16;
    sc.max_arrival_gap = 2;
    sc.session_share = 0.5;
    sc.shared_prefix_share = 0.3;
    sc.max_prefill = 300;
    sc.expect_preemptions = true;
    sc.expect_cache_hits = true;
    out.push_back(sc);
  }
  {
    // Peak-memory admission in a pool that holds two or three requests at
    // their maximum length.
    Scenario sc;
    sc.name = "lightllm_peak_admission";
    sc.kind = SchedulerKind::kLightLlm;
    sc.max_batch_size = 8;
    sc.kv_blocks = 40;
    sc.max_arrival_gap = 1;
    sc.max_prefill = 250;
    sc.max_decode = 120;
    out.push_back(sc);
  }
  {
    // Chunked prefill role with a cache, handing off to a decode role
    // whose peak-memory admission defers migrated requests.
    Scenario sc;
    sc.name = "disagg_handoff";
    sc.disagg = true;
    sc.max_batch_size = 10;
    sc.chunk_size = 48;
    sc.kv_blocks = 64;
    sc.decode_kv_blocks = 40;
    sc.cache_blocks = 16;
    sc.max_arrival_gap = 1;
    sc.session_share = 0.4;
    sc.max_prefill = 250;
    sc.max_decode = 80;
    sc.expect_handoffs = true;
    sc.expect_cache_hits = true;
    out.push_back(sc);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, BatchFormationDifferential, ::testing::ValuesIn(scenarios()),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace vidur
