#include "api/experiment.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <sstream>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "hardware/sku.h"
#include "model/model_spec.h"
#include "scenario/registry.h"

namespace vidur {

namespace {

const std::vector<std::pair<ExperimentMode, std::string>>& mode_names() {
  static const std::vector<std::pair<ExperimentMode, std::string>> table = {
      {ExperimentMode::kSimulate, "simulate"},
      {ExperimentMode::kReference, "reference"},
      {ExperimentMode::kCapacitySearch, "capacity_search"},
      {ExperimentMode::kElasticPlan, "elastic_plan"},
  };
  return table;
}

// ------------------------------------------------- did-you-mean helpers

std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
    }
  }
  return row[b.size()];
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += names[i];
  }
  return out;
}

/// "unknown <what> '<got>' (did you mean '<closest>'?); known <what>s: ...",
/// prefixed with "spec field '<field>': " when a spec field named it.
[[noreturn]] void fail_unknown_name(const std::string& what,
                                    const std::string& got,
                                    const std::vector<std::string>& known,
                                    const std::string& field = "") {
  std::ostringstream os;
  if (!field.empty()) os << "spec field '" << field << "': ";
  os << "unknown " << what << " '" << got << "'";
  std::size_t best = std::string::npos;
  const std::string* suggestion = nullptr;
  for (const std::string& candidate : known) {
    const std::size_t d = edit_distance(got, candidate);
    if (d < best) {
      best = d;
      suggestion = &candidate;
    }
  }
  if (suggestion != nullptr &&
      best <= std::max<std::size_t>(2, got.size() / 3))
    os << " (did you mean '" << *suggestion << "'?)";
  os << "; known: " << join(known);
  throw Error(os.str());
}

void check_name(const std::string& what, const std::string& got,
                const std::vector<std::string>& known) {
  if (std::find(known.begin(), known.end(), got) == known.end())
    fail_unknown_name(what, got, known);
}

}  // namespace

const std::string& experiment_mode_name(ExperimentMode mode) {
  for (const auto& [m, n] : mode_names())
    if (m == mode) return n;
  throw Error("unhandled ExperimentMode");
}

ExperimentMode experiment_mode_from_name(const std::string& name) {
  for (const auto& [m, n] : mode_names())
    if (n == name) return m;
  fail_unknown_name("experiment mode", name, experiment_mode_names());
}

const std::vector<std::string>& experiment_mode_names() {
  static const std::vector<std::string> all = [] {
    std::vector<std::string> out;
    for (const auto& [m, n] : mode_names()) out.push_back(n);
    return out;
  }();
  return all;
}

// ---------------------------------------------------------------- sweep

bool SweepAxes::empty() const {
  // Axis-wise, not num_points() == 1: a single-element axis still pins
  // that coordinate and must be applied by expand_sweep().
  return sku.empty() && tensor_parallel.empty() &&
         pipeline_parallel.empty() && num_replicas.empty() &&
         scheduler.empty() && max_batch_size.empty() && chunk_size.empty() &&
         qps.empty();
}

std::size_t SweepAxes::num_points() const {
  const auto dim = [](std::size_t n) { return std::max<std::size_t>(1, n); };
  return dim(sku.size()) * dim(tensor_parallel.size()) *
         dim(pipeline_parallel.size()) * dim(num_replicas.size()) *
         dim(scheduler.size()) * dim(max_batch_size.size()) *
         dim(chunk_size.size()) * dim(qps.size());
}

// -------------------------------------------------------------- builders

ExperimentSpec& ExperimentSpec::with_name(std::string n) {
  name = std::move(n);
  return *this;
}

ExperimentSpec& ExperimentSpec::with_mode(ExperimentMode m) {
  mode = m;
  return *this;
}

ExperimentSpec& ExperimentSpec::with_model(std::string model_name) {
  model = std::move(model_name);
  return *this;
}

ExperimentSpec& ExperimentSpec::with_sku(std::string sku_name) {
  deployment.sku_name = std::move(sku_name);
  return *this;
}

ExperimentSpec& ExperimentSpec::with_parallelism(int tp, int pp,
                                                 int replicas) {
  deployment.parallel = ParallelConfig{tp, pp, replicas};
  return *this;
}

ExperimentSpec& ExperimentSpec::with_scheduler(SchedulerKind kind,
                                               int max_batch_size,
                                               TokenCount chunk_size) {
  deployment.scheduler.kind = kind;
  deployment.scheduler.max_batch_size = max_batch_size;
  deployment.scheduler.chunk_size = chunk_size;
  return *this;
}

ExperimentSpec& ExperimentSpec::with_routing(GlobalSchedulerKind kind) {
  deployment.global_scheduler = kind;
  return *this;
}

ExperimentSpec& ExperimentSpec::with_trace(std::string trace_name, double qps,
                                           int num_requests) {
  workload.scenario.clear();
  workload.trace = std::move(trace_name);
  workload.arrival = ArrivalSpec{ArrivalKind::kPoisson, qps, /*cv=*/2.0};
  workload.num_requests = num_requests;
  return *this;
}

ExperimentSpec& ExperimentSpec::with_scenario(std::string scenario_name,
                                              int num_requests) {
  workload.scenario = std::move(scenario_name);
  workload.num_requests = num_requests;
  return *this;
}

ExperimentSpec& ExperimentSpec::with_slo(SloSpec s) {
  slo = s;
  return *this;
}

ExperimentSpec& ExperimentSpec::with_seed(std::uint64_t s) {
  seed = s;
  return *this;
}

ExperimentSpec& ExperimentSpec::with_autoscale(AutoscalerConfig autoscale) {
  deployment.autoscale = std::move(autoscale);
  return *this;
}

ExperimentSpec& ExperimentSpec::with_pool(PoolSpec pool) {
  deployment.pools.push_back(std::move(pool));
  return *this;
}

ExperimentSpec& ExperimentSpec::with_prefix_cache(double capacity_fraction) {
  deployment.prefix_cache.enabled = true;
  deployment.prefix_cache.capacity_fraction = capacity_fraction;
  return *this;
}

ExperimentSpec& ExperimentSpec::with_faults(FaultConfig faults) {
  deployment.faults = std::move(faults);
  return *this;
}

// -------------------------------------------------------------- validate

void ExperimentSpec::validate() const {
  VIDUR_CHECK_MSG(!name.empty(), "experiment spec needs a non-empty name");
  check_name("model", model, builtin_model_names());
  check_name("SKU", deployment.sku_name, builtin_sku_names());

  deployment.parallel.validate();
  deployment.scheduler.validate();
  const auto check_tp_covered = [this](int tp, const char* what) {
    VIDUR_CHECK_MSG(
        std::count(tp_degrees.begin(), tp_degrees.end(), tp) > 0,
        what << " tensor_parallel " << tp
             << " is not covered by the session tp_degrees [" << [this] {
                  std::ostringstream os;
                  for (std::size_t i = 0; i < tp_degrees.size(); ++i)
                    os << (i > 0 ? ", " : "") << tp_degrees[i];
                  return os.str();
                }() << "]; add it to tp_degrees so onboarding profiles it");
  };
  deployment.disagg.validate();
  if (deployment.pools.empty()) {
    check_tp_covered(deployment.parallel.tensor_parallel, "deployment");
    VIDUR_CHECK_MSG(
        deployment.disagg.num_prefill_replicas <
            deployment.parallel.num_replicas,
        "deployment.disagg.num_prefill_replicas ("
            << deployment.disagg.num_prefill_replicas
            << ") must be below deployment.num_replicas ("
            << deployment.parallel.num_replicas
            << "): disaggregation requires at least one decode replica");
  }

  VIDUR_CHECK_MSG(
      !(deployment.disagg.enabled() && deployment.autoscale.enabled()),
      "disaggregated serving and autoscaling cannot be combined in the "
      "homogeneous form (use deployment.pools with prefill/decode pools, "
      "which scale independently); disable deployment.disagg or "
      "deployment.autoscale");
  if (deployment.autoscale.enabled()) deployment.autoscale.validate();

  // ---- prefix cache ----
  deployment.prefix_cache.validate();
  VIDUR_CHECK_MSG(
      deployment.global_scheduler != GlobalSchedulerKind::kCacheAware ||
          deployment.prefix_cache.enabled,
      "global_scheduler 'cache_aware' routes on prefix-cache residency; "
      "set deployment.prefix_cache.enabled = true (or pick another "
      "routing policy)");

  // ---- heterogeneous pools ----
  if (!deployment.pools.empty()) {
    VIDUR_CHECK_MSG(deployment.autoscale == AutoscalerConfig{},
                    "deployment.pools carries per-pool autoscale policies; "
                    "remove the top-level deployment.autoscale section");
    VIDUR_CHECK_MSG(!deployment.disagg.enabled(),
                    "deployment.pools defines disaggregation through pool "
                    "roles; remove deployment.disagg.num_prefill_replicas "
                    "(the transfer_* fields still apply)");
    VIDUR_CHECK_MSG(
        deployment.sku_name == DeploymentConfig{}.sku_name &&
            deployment.parallel == ParallelConfig{},
        "deployment.pools supersedes the homogeneous sku/tensor_parallel/"
        "pipeline_parallel/num_replicas fields; leave them at their "
        "defaults (each pool carries its own)");
    // validate_pools() owns the structural checks (names, costs, roles,
    // group consistency); this loop adds only the spec-layer extras: the
    // SKU did-you-mean and the session tp_degrees coverage.
    for (const PoolSpec& pool : deployment.pools) {
      check_name("SKU", pool.sku_name, builtin_sku_names());
      check_tp_covered(pool.parallel.tensor_parallel,
                       ("pool '" + pool.name + "'").c_str());
    }
    validate_pools(deployment.pools);
    bool any_capacity = false, all_capacity = true;
    for (const PoolSpec& pool : deployment.pools) {
      any_capacity |= pool.capacity_qps > 0;
      all_capacity &= pool.capacity_qps > 0;
    }
    VIDUR_CHECK_MSG(!any_capacity || all_capacity,
                    "deployment.pools sets capacity_qps on some pools but "
                    "not others; set it on every pool or on none (unset "
                    "capacities are derived from the estimator)");
  }

  // ---- fault injection ----
  deployment.faults.validate();
  if (deployment.faults.enabled()) {
    // Profiles must aim at pools that exist. "" (or "fleet") targets the
    // homogeneous fleet and is only meaningful without named pools.
    std::vector<std::string> pool_names;
    for (const PoolSpec& pool : deployment.pools)
      pool_names.push_back(pool.name);
    for (const FaultProfile& p : deployment.faults.profiles) {
      if (deployment.pools.empty()) {
        VIDUR_CHECK_MSG(p.pool.empty() || p.pool == "fleet",
                        "faults profile targets pool '"
                            << p.pool
                            << "' but the deployment has no named pools; "
                               "leave the profile's pool empty to target "
                               "the homogeneous fleet");
      } else {
        check_name("faults profile pool", p.pool, pool_names);
      }
    }
    // Kill-type faults remove capacity; without an autoscaler there is
    // nothing to provision replacements, so the what-if is degenerate.
    if (deployment.faults.any_kills()) {
      const bool elastic = deployment.pools.empty()
                               ? deployment.autoscale.enabled()
                               : any_pool_autoscaled(deployment.pools);
      VIDUR_CHECK_MSG(
          elastic,
          "faults include crashes or spot preemption, which permanently "
          "remove replicas; enable autoscaling (deployment.autoscale or a "
          "pool autoscale section) so the fleet can provision replacements "
          "(degrade-only profiles work on static fleets)");
    }
    switch (mode) {
      case ExperimentMode::kSimulate:
      case ExperimentMode::kReference:
        break;
      case ExperimentMode::kCapacitySearch:
      case ExperimentMode::kElasticPlan:
        throw Error(
            "deployment.faults applies to simulate/reference runs; "
            "capacity_search and elastic_plan evaluate fault-free "
            "deployments (remove the faults section)");
    }
  }

  // ---- execution ----
  VIDUR_CHECK_MSG(deployment.threads >= 1,
                  "deployment.execution.threads must be >= 1 (got "
                      << deployment.threads << ")");
  if (deployment.threads > 1) {
    VIDUR_CHECK_MSG(
        !deployment.disagg.enabled() &&
            !pools_disaggregated(deployment.pools),
        "deployment.execution.threads > 1 cannot shard disaggregated "
        "serving (prefill->decode KV hand-offs have zero lookahead); set "
        "threads = 1 or drop the disaggregation");
  }

  // ---- workload ----
  if (workload.synthetic()) {
    check_name("trace", workload.trace, builtin_trace_names());
    workload.arrival.validate();
    VIDUR_CHECK_MSG(workload.num_requests > 0,
                    "a synthetic workload needs workload.num_requests > 0");
  } else {
    check_name("scenario", workload.scenario,
               ScenarioRegistry::instance().names());
    VIDUR_CHECK_MSG(workload.num_requests >= 0,
                    "workload.num_requests must be >= 0 (0 keeps the "
                    "scenario's own default)");
    // Catch the silent-override trap: a scenario defines its own tenant
    // traces and arrival process, so a spec that also customizes the
    // synthetic fields almost certainly expected them to apply.
    const WorkloadSpec defaults;
    VIDUR_CHECK_MSG(
        workload.trace == defaults.trace &&
            workload.arrival == defaults.arrival,
        "workload.scenario '"
            << workload.scenario
            << "' carries its own traces and arrival process; remove "
               "workload.trace / workload.arrival from the spec");
  }
  VIDUR_CHECK_MSG(std::isfinite(slo.ttft_target) && slo.ttft_target >= 0 &&
                      std::isfinite(slo.tbt_target) && slo.tbt_target >= 0,
                  "SLO targets must be finite and >= 0");
  VIDUR_CHECK_MSG(num_threads >= 0, "num_threads must be >= 0");

  // ---- observability ----
  VIDUR_CHECK_MSG(obs.trace_capacity > 0,
                  "obs.trace_capacity must be > 0 (records; the ring buffer "
                  "keeps the most recent ones)");
  VIDUR_CHECK_MSG(
      std::isfinite(obs.rolling_window_s) && obs.rolling_window_s >= 0,
      "obs.rolling_window_s must be finite and >= 0 (0 disables)");

  // ---- mode constraints ----
  switch (mode) {
    case ExperimentMode::kSimulate:
    case ExperimentMode::kReference:
      break;
    case ExperimentMode::kCapacitySearch:
      VIDUR_CHECK_MSG(deployment.pools.empty(),
                      "capacity_search sweeps homogeneous deployments and "
                      "does not search over pool layouts; remove "
                      "deployment.pools (or use mode elastic_plan for a "
                      "static-vs-autoscaled pool comparison)");
      VIDUR_CHECK_MSG(workload.synthetic(),
                      "capacity_search mode sweeps arrival rates itself and "
                      "needs a synthetic workload: set workload.trace, not "
                      "workload.scenario '"
                          << workload.scenario << "'");
      // The search probes its own arrival rates (that is the quantity it
      // binary-searches); a customized arrival would be silently ignored.
      VIDUR_CHECK_MSG(workload.arrival == WorkloadSpec{}.arrival,
                      "capacity_search probes its own arrival rates; remove "
                      "workload.arrival from the spec");
      for (const std::string& sku : search.skus)
        check_name("SKU", sku, builtin_sku_names());
      for (const int tp : search.tp_degrees)
        VIDUR_CHECK_MSG(
            std::count(tp_degrees.begin(), tp_degrees.end(), tp) > 0,
            "search.tp_degrees includes "
                << tp << ", which the session tp_degrees do not cover; add "
                         "it to tp_degrees so onboarding profiles it");
      break;
    case ExperimentMode::kElasticPlan:
      VIDUR_CHECK_MSG(!workload.synthetic(),
                      "elastic_plan mode compares static and autoscaled "
                      "fleets on a named scenario; set workload.scenario");
      VIDUR_CHECK_MSG(deployment.pools.empty()
                          ? deployment.autoscale.enabled()
                          : any_pool_autoscaled(deployment.pools),
                      "elastic_plan mode needs an autoscaling policy to "
                      "evaluate: set deployment.autoscale (homogeneous) or "
                      "an autoscale section on at least one pool");
      VIDUR_CHECK_MSG(elastic.slo_target > 0 && elastic.slo_target <= 1,
                      "elastic.slo_target must be in (0, 1]");
      VIDUR_CHECK_MSG(elastic.max_replicas >= 1 && elastic.burst_slots >= 0,
                      "elastic.max_replicas must be >= 1 and "
                      "elastic.burst_slots >= 0");
      break;
  }

  // ---- sweep axes ----
  VIDUR_CHECK_MSG(deployment.pools.empty() ||
                      (sweep.sku.empty() && sweep.tensor_parallel.empty() &&
                       sweep.pipeline_parallel.empty() &&
                       sweep.num_replicas.empty()),
                  "sweep axes sku/tensor_parallel/pipeline_parallel/"
                  "num_replicas rewrite the homogeneous deployment, which "
                  "deployment.pools supersedes; drop those axes or the "
                  "pools");
  for (const std::string& sku : sweep.sku)
    check_name("SKU", sku, builtin_sku_names());
  for (const std::string& sched : sweep.scheduler)
    check_name("scheduler", sched, scheduler_names());
  for (const int tp : sweep.tensor_parallel)
    VIDUR_CHECK_MSG(std::count(tp_degrees.begin(), tp_degrees.end(), tp) > 0,
                    "sweep.tensor_parallel includes "
                        << tp << ", which the session tp_degrees do not "
                                 "cover; add it to tp_degrees");
  VIDUR_CHECK_MSG(sweep.qps.empty() || workload.synthetic(),
                  "sweep.qps applies to synthetic workloads; scenario '"
                      << workload.scenario
                      << "' carries its own arrival rate");
}

// ---------------------------------------------------------- expand_sweep

std::vector<ExperimentSpec> ExperimentSpec::expand_sweep() const {
  ExperimentSpec base = *this;
  base.sweep = SweepAxes{};
  if (sweep.empty()) return {std::move(base)};

  // Every non-empty axis contributes its values; empty axes contribute the
  // base spec's single value (encoded as one-element vectors below).
  const auto or_base = [](auto axis, auto base_value) {
    if (axis.empty()) axis.push_back(base_value);
    return axis;
  };
  const auto skus = or_base(sweep.sku, deployment.sku_name);
  const auto tps = or_base(sweep.tensor_parallel,
                           deployment.parallel.tensor_parallel);
  const auto pps = or_base(sweep.pipeline_parallel,
                           deployment.parallel.pipeline_parallel);
  const auto replicas = or_base(sweep.num_replicas,
                                deployment.parallel.num_replicas);
  const auto scheds = or_base(
      sweep.scheduler, scheduler_name(deployment.scheduler.kind));
  const auto batches = or_base(sweep.max_batch_size,
                               deployment.scheduler.max_batch_size);
  const auto chunks = or_base(sweep.chunk_size,
                              deployment.scheduler.chunk_size);
  const auto rates = or_base(sweep.qps, workload.arrival.qps);

  std::vector<ExperimentSpec> out;
  out.reserve(sweep.num_points());
  for (const std::string& sku : skus)
    for (const int tp : tps)
      for (const int pp : pps)
        for (const int n : replicas)
          for (const std::string& sched : scheds)
            for (const int bs : batches)
              for (const TokenCount chunk : chunks)
                for (const double qps : rates) {
                  ExperimentSpec point = base;
                  point.deployment.sku_name = sku;
                  point.deployment.parallel.tensor_parallel = tp;
                  point.deployment.parallel.pipeline_parallel = pp;
                  point.deployment.parallel.num_replicas = n;
                  point.deployment.scheduler.kind =
                      scheduler_from_name(sched);
                  point.deployment.scheduler.max_batch_size = bs;
                  point.deployment.scheduler.chunk_size = chunk;
                  point.workload.arrival.qps = qps;
                  // Suffix the name with the swept coordinates only.
                  std::ostringstream suffix;
                  const auto tag = [&suffix](bool swept, const char* key,
                                             const auto& value) {
                    if (!swept) return;
                    if (suffix.tellp() > 0) suffix << ",";
                    suffix << key << "=" << value;
                  };
                  tag(!sweep.sku.empty(), "sku", sku);
                  tag(!sweep.tensor_parallel.empty(), "tp", tp);
                  tag(!sweep.pipeline_parallel.empty(), "pp", pp);
                  tag(!sweep.num_replicas.empty(), "replicas", n);
                  tag(!sweep.scheduler.empty(), "sched", sched);
                  tag(!sweep.max_batch_size.empty(), "bs", bs);
                  tag(!sweep.chunk_size.empty(), "chunk", chunk);
                  tag(!sweep.qps.empty(), "qps", qps);
                  point.name = name + "[" + suffix.str() + "]";
                  out.push_back(std::move(point));
                }
  return out;
}

// ------------------------------------------------------------------ JSON
//
// Every spec key is declared once, in the field table of the struct that
// holds it. A table lists its keys in output order; each entry names the
// member, whether the key is always written or only when it differs from
// the default, and (for the two deployment and workload forms) the form it
// is written in. The member's type picks its codec. One generic writer and
// one strict reader walk the tables: the reader parses a present section
// onto the value the spec would have without it, so an omitted key keeps
// its default at every level, rejects unknown keys with a did-you-mean,
// and names the full path of the key in every error.

namespace {

enum class Emit { kUnlessDefault, kAlways };

/// Path of `key` inside the section at `path` ("" is the spec itself).
std::string key_path(const std::string& path, const char* key) {
  return path.empty() ? std::string(key) : path + "." + key;
}

void expect_type(bool ok, const std::string& path, const char* type) {
  VIDUR_CHECK_MSG(ok, "spec field '" << path << "' must be " << type);
}

/// One key of a section of type S.
template <typename S>
struct Field {
  const char* key;
  Emit emit;
  /// Written only for values of this form (the reader accepts the key in
  /// every form); nullptr means every form.
  bool (*when)(const S&);
  std::function<bool(const S&, const S&)> equal;
  std::function<JsonValue(const S&, const S&)> write;
  std::function<void(const JsonValue&, S&, const std::string&)> read;
};

template <typename S>
struct Table {
  std::vector<Field<S>> fields;
  /// Array elements of this type are named in error paths by this string
  /// key (`pools['a']`) instead of by their index.
  const char* label = nullptr;
};

/// The field table of each section type; defined below, leaves first.
template <typename S>
const Table<S>& table();

template <typename S>
bool section_equal(const Table<S>& t, const S& a, const S& b) {
  return std::all_of(t.fields.begin(), t.fields.end(),
                     [&](const Field<S>& f) { return f.equal(a, b); });
}

template <typename S>
JsonValue write_section(const Table<S>& t, const S& value, const S& dflt) {
  JsonValue j = JsonValue::object();
  for (const Field<S>& f : t.fields) {
    if (f.when != nullptr && !f.when(value)) continue;
    if (f.emit == Emit::kUnlessDefault && f.equal(value, dflt)) continue;
    j.set(f.key, f.write(value, dflt));
  }
  return j;
}

/// Rejects every member of `j` not named in `known`, with a did-you-mean.
void reject_unknown_keys(const JsonValue& j,
                         const std::vector<std::string>& known,
                         const std::string& section) {
  for (const auto& [key, value] : j.members())
    if (std::find(known.begin(), known.end(), key) == known.end())
      fail_unknown_name("'" + section + "' field", key, known);
}

template <typename S>
void read_section(const Table<S>& t, const JsonValue& j, S& value,
                  const std::string& path) {
  const std::string section = path.empty() ? "experiment" : path;
  VIDUR_CHECK_MSG(j.is_object(),
                  "spec section '" << section << "' must be a JSON object");
  std::vector<std::string> known;
  for (const Field<S>& f : t.fields) {
    known.push_back(f.key);
    if (const JsonValue* v = j.find(f.key))
      f.read(*v, value, key_path(path, f.key));
  }
  reject_unknown_keys(j, known, section);
}

// ---- codecs: the read/write pair of one value type

/// A nested section: a struct with a field table.
template <typename T>
struct Section {
  static bool equal(const T& a, const T& b) {
    return section_equal(table<T>(), a, b);
  }
  static JsonValue write(const T& v, const T& dflt) {
    return write_section(table<T>(), v, dflt);
  }
  static void read(const JsonValue& j, T& v, const std::string& path) {
    read_section(table<T>(), j, v, path);
  }
};

template <typename T>
struct Codec : Section<T> {};

/// Scalars compare with == and are written through JsonValue's constructor.
template <typename T>
struct Scalar {
  static bool equal(const T& a, const T& b) { return a == b; }
  static JsonValue write(const T& v, const T&) { return JsonValue(v); }
};

/// int and TokenCount alike are read as 32-bit integers.
template <typename T>
struct Int : Scalar<T> {
  static void read(const JsonValue& j, T& v, const std::string& path) {
    expect_type(j.is_int(), path, "an integer");
    const std::int64_t raw = j.as_int();
    VIDUR_CHECK_MSG(raw >= std::numeric_limits<int>::min() &&
                        raw <= std::numeric_limits<int>::max(),
                    "spec field '" << path << "' value " << raw
                                   << " is out of the 32-bit integer range");
    v = static_cast<int>(raw);
  }
};

template <>
struct Codec<int> : Int<int> {};
template <>
struct Codec<TokenCount> : Int<TokenCount> {};

/// Seeds: a uint64 carried as the bit pattern of a JSON int64.
template <>
struct Codec<std::uint64_t> : Scalar<std::uint64_t> {
  static JsonValue write(std::uint64_t v, std::uint64_t) {
    return JsonValue(static_cast<std::int64_t>(v));
  }
  static void read(const JsonValue& j, std::uint64_t& v,
                   const std::string& path) {
    expect_type(j.is_int(), path, "an integer");
    v = static_cast<std::uint64_t>(j.as_int());
  }
};

template <>
struct Codec<double> : Scalar<double> {
  static void read(const JsonValue& j, double& v, const std::string& path) {
    expect_type(j.is_number(), path, "a number");
    v = j.as_double();
  }
};

template <>
struct Codec<bool> : Scalar<bool> {
  static void read(const JsonValue& j, bool& v, const std::string& path) {
    expect_type(j.is_bool(), path, "a boolean");
    v = j.as_bool();
  }
};

template <>
struct Codec<std::string> : Scalar<std::string> {
  static void read(const JsonValue& j, std::string& v,
                   const std::string& path) {
    expect_type(j.is_string(), path, "a string");
    v = j.as_string();
  }
};

/// An enum's label in errors, its module's name function and its last
/// enumerator (every spec enum numbers its values from 0).
template <typename E>
struct EnumNames {
  const char* what;
  const std::string& (*name)(E);
  E last;
};

EnumNames<ExperimentMode> enum_names(ExperimentMode) {
  return {"experiment mode", experiment_mode_name,
          ExperimentMode::kElasticPlan};
}
EnumNames<SchedulerKind> enum_names(SchedulerKind) {
  return {"scheduler", scheduler_name, SchedulerKind::kLightLlm};
}
EnumNames<GlobalSchedulerKind> enum_names(GlobalSchedulerKind) {
  return {"global scheduler", global_scheduler_name,
          GlobalSchedulerKind::kCacheAware};
}
EnumNames<AutoscalerKind> enum_names(AutoscalerKind) {
  return {"autoscaler", autoscaler_name, AutoscalerKind::kPredictive};
}
EnumNames<ScaleSignal> enum_names(ScaleSignal) {
  return {"scale signal", scale_signal_name, ScaleSignal::kKvPressure};
}
EnumNames<PoolRole> enum_names(PoolRole) {
  return {"pool role", pool_role_name, PoolRole::kDecode};
}
EnumNames<ArrivalKind> enum_names(ArrivalKind) {
  return {"arrival kind", arrival_kind_name, ArrivalKind::kGamma};
}
EnumNames<RateProfileKind> enum_names(RateProfileKind) {
  return {"rate profile kind", rate_profile_kind_name,
          RateProfileKind::kPiecewise};
}

/// Enums are written and read by name.
template <typename E>
  requires std::is_enum_v<E>
struct Codec<E> {
  static bool equal(E a, E b) { return a == b; }
  static JsonValue write(E v, E) { return enum_names(v).name(v); }
  static void read(const JsonValue& j, E& v, const std::string& path) {
    expect_type(j.is_string(), path, "a string");
    const EnumNames<E> names = enum_names(E{});
    std::vector<std::string> known;
    for (int i = 0; i <= static_cast<int>(names.last); ++i) {
      const E e = static_cast<E>(i);
      if (names.name(e) == j.as_string()) {
        v = e;
        return;
      }
      known.push_back(names.name(e));
    }
    fail_unknown_name(names.what, j.as_string(), known, path);
  }
};

template <typename T>
struct Codec<std::vector<T>> {
  static bool equal(const std::vector<T>& a, const std::vector<T>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      Codec<T>::equal);
  }
  static JsonValue write(const std::vector<T>& v, const std::vector<T>&) {
    JsonValue arr = JsonValue::array();
    for (const T& item : v) arr.push(Codec<T>::write(item, T{}));
    return arr;
  }
  /// Elements parse onto T's own default.
  static void read(const JsonValue& j, std::vector<T>& v,
                   const std::string& path) {
    expect_type(j.is_array(), path, "an array");
    v.clear();
    for (const JsonValue& item : j.items()) {
      const char* label = nullptr;
      if constexpr (std::is_base_of_v<Section<T>, Codec<T>>)
        label = table<T>().label;
      const JsonValue* name =
          label != nullptr && item.is_object() ? item.find(label) : nullptr;
      const std::string at =
          name != nullptr && name->is_string()
              ? path + "['" + name->as_string() + "']"
              : path + "[" + std::to_string(v.size()) + "]";
      T parsed{};
      Codec<T>::read(item, parsed, at);
      v.push_back(std::move(parsed));
    }
  }
};

/// A piecewise profile step: a [start_s, factor] pair.
template <>
struct Codec<RateStep> : Scalar<RateStep> {
  static JsonValue write(const RateStep& s, const RateStep&) {
    JsonValue pair = JsonValue::array();
    pair.push(s.start_time);
    pair.push(s.factor);
    return pair;
  }
  static void read(const JsonValue& j, RateStep& s, const std::string& path) {
    VIDUR_CHECK_MSG(j.is_array() && j.size() == 2,
                    "spec field '" << path
                                   << "' must be a [start_s, factor] pair");
    Codec<double>::read(j.items()[0], s.start_time, path + "[0]");
    Codec<double>::read(j.items()[1], s.factor, path + "[1]");
  }
};

/// One numeric parameter of a rate profile and the raw slot it fills
/// (0 = a, 1 = b, 2 = t0, 3 = t1; see RateProfile's raw view).
struct ProfileParam {
  const char* key;
  int slot;
};

/// The parameter keys of each profile kind, in output order.
std::span<const ProfileParam> profile_params(RateProfileKind kind) {
  static constexpr ProfileParam kDiurnal[] = {
      {"period_s", 2}, {"low", 0}, {"high", 1}};
  static constexpr ProfileParam kRamp[] = {
      {"start", 0}, {"end", 1}, {"duration_s", 2}};
  static constexpr ProfileParam kSpike[] = {
      {"baseline", 0}, {"spike", 1}, {"start_s", 2}, {"duration_s", 3}};
  switch (kind) {
    case RateProfileKind::kDiurnal:
      return kDiurnal;
    case RateProfileKind::kRamp:
      return kRamp;
    case RateProfileKind::kSpike:
      return kSpike;
    case RateProfileKind::kConstant:
    case RateProfileKind::kPiecewise:
      return {};
  }
  throw Error("unhandled RateProfileKind");
}

/// A rate profile's keys depend on its kind, so it is read in two passes:
/// the kind, then that kind's parameters (absent ones are 0). The named
/// factories rebuild (and validate) the profile.
template <>
struct Codec<RateProfile> : Scalar<RateProfile> {
  static JsonValue write(const RateProfile& p, const RateProfile&) {
    JsonValue j = JsonValue::object();
    j.set("kind", Codec<RateProfileKind>::write(p.kind(), p.kind()));
    const double raw[] = {p.raw_a(), p.raw_b(), p.raw_t0(), p.raw_t1()};
    for (const ProfileParam& param : profile_params(p.kind()))
      j.set(param.key, raw[param.slot]);
    if (p.kind() == RateProfileKind::kPiecewise)
      j.set("steps", Codec<std::vector<RateStep>>::write(p.steps(), {}));
    return j;
  }
  static void read(const JsonValue& j, RateProfile& p,
                   const std::string& path) {
    VIDUR_CHECK_MSG(j.is_object(),
                    "spec section '" << path << "' must be a JSON object");
    RateProfileKind kind = RateProfileKind::kConstant;
    if (const JsonValue* k = j.find("kind"))
      Codec<RateProfileKind>::read(*k, kind, key_path(path, "kind"));
    std::vector<std::string> known = {"kind"};
    double raw[4] = {};
    for (const ProfileParam& param : profile_params(kind)) {
      known.push_back(param.key);
      if (const JsonValue* v = j.find(param.key))
        Codec<double>::read(*v, raw[param.slot], key_path(path, param.key));
    }
    std::vector<RateStep> steps;
    if (kind == RateProfileKind::kPiecewise) {
      known.push_back("steps");
      if (const JsonValue* v = j.find("steps"))
        Codec<std::vector<RateStep>>::read(*v, steps,
                                           key_path(path, "steps"));
    }
    reject_unknown_keys(j, known, path);
    switch (kind) {
      case RateProfileKind::kConstant:
        p = RateProfile::constant();
        return;
      case RateProfileKind::kDiurnal:
        p = RateProfile::diurnal(raw[2], raw[0], raw[1]);
        return;
      case RateProfileKind::kRamp:
        p = RateProfile::ramp(raw[0], raw[1], raw[2]);
        return;
      case RateProfileKind::kSpike:
        p = RateProfile::spike(raw[0], raw[1], raw[2], raw[3]);
        return;
      case RateProfileKind::kPiecewise:
        p = RateProfile::piecewise(std::move(steps));
        return;
    }
  }
};

// ---- field constructors

template <typename S, typename Get>
Field<S> field_at(const char* key, Get get, Emit emit,
                  bool (*when)(const S&)) {
  using T = std::remove_cvref_t<decltype(get(std::declval<S&>()))>;
  return {key, emit, when,
          [get](const S& a, const S& b) {
            return Codec<T>::equal(get(a), get(b));
          },
          [get](const S& v, const S& d) {
            return Codec<T>::write(get(v), get(d));
          },
          [get](const JsonValue& j, S& v, const std::string& path) {
            Codec<T>::read(j, get(v), path);
          }};
}

/// `key` holds `member`.
template <typename S, typename T>
Field<S> field(const char* key, T S::*member,
               Emit emit = Emit::kUnlessDefault,
               bool (*when)(const S&) = nullptr) {
  return field_at<S>(
      key, [member](auto& s) -> auto& { return s.*member; }, emit, when);
}

/// `key` holds `(s.*outer).*inner` (parallelism flattened into its owner).
template <typename S, typename M, typename T>
Field<S> field(const char* key, M S::*outer, T M::*inner,
               Emit emit = Emit::kUnlessDefault,
               bool (*when)(const S&) = nullptr) {
  return field_at<S>(
      key, [outer, inner](auto& s) -> auto& { return (s.*outer).*inner; },
      emit, when);
}

/// `key` is a section of some of S's own members, with its own table.
template <typename S>
Field<S> view(const char* key, const Table<S>& (*t)()) {
  return {key, Emit::kUnlessDefault, nullptr,
          [t](const S& a, const S& b) { return section_equal(t(), a, b); },
          [t](const S& v, const S& d) { return write_section(t(), v, d); },
          [t](const JsonValue& j, S& v, const std::string& path) {
            read_section(t(), j, v, path);
          }};
}

constexpr Emit kAlways = Emit::kAlways;

// ---- the tables

template <>
const Table<SchedulerConfig>& table() {
  using S = SchedulerConfig;
  static const Table<S> t{{
      field("kind", &S::kind, kAlways),
      field("max_batch_size", &S::max_batch_size),
      field("max_tokens_per_iteration", &S::max_tokens_per_iteration),
      field("chunk_size", &S::chunk_size),
      field("watermark_fraction", &S::watermark_fraction),
  }};
  return t;
}

template <>
const Table<DisaggConfig>& table() {
  using S = DisaggConfig;
  static const Table<S> t{{
      field("num_prefill_replicas", &S::num_prefill_replicas, kAlways),
      field("transfer_bandwidth_gbps", &S::transfer_bandwidth_gbps),
      field("transfer_latency_s", &S::transfer_latency),
  }};
  return t;
}

template <>
const Table<AutoscalerConfig>& table() {
  using S = AutoscalerConfig;
  static const Table<S> t{{
      field("kind", &S::kind, kAlways),
      field("signal", &S::signal),
      field("target_kv_utilization", &S::target_kv_utilization),
      field("scale_up_kv_utilization", &S::scale_up_kv_utilization),
      field("scale_down_kv_utilization", &S::scale_down_kv_utilization),
      field("min_replicas", &S::min_replicas),
      field("initial_replicas", &S::initial_replicas),
      field("provision_delay_s", &S::provision_delay),
      field("warmup_delay_s", &S::warmup_delay),
      field("decision_interval_s", &S::decision_interval),
      field("scale_up_cooldown_s", &S::scale_up_cooldown),
      field("scale_down_cooldown_s", &S::scale_down_cooldown),
      field("max_scale_step", &S::max_scale_step),
      field("target_load_per_replica", &S::target_load_per_replica),
      field("scale_up_load", &S::scale_up_load),
      field("scale_down_load", &S::scale_down_load),
      field("profile", &S::profile),
      field("baseline_qps", &S::baseline_qps),
      field("replica_capacity_qps", &S::replica_capacity_qps),
      field("headroom", &S::headroom),
      field("lookahead_s", &S::lookahead),
  }};
  return t;
}

template <>
const Table<PrefixCacheConfig>& table() {
  using S = PrefixCacheConfig;
  static const Table<S> t{{
      field("enabled", &S::enabled, kAlways),
      field("capacity_fraction", &S::capacity_fraction),
  }};
  return t;
}

template <>
const Table<SpotWindow>& table() {
  using S = SpotWindow;
  static const Table<S> t{{
      field("start_s", &S::start, kAlways),
      field("duration_s", &S::duration, kAlways),
      field("replicas", &S::replicas),
      field("notice_s", &S::notice),
  }};
  return t;
}

template <>
const Table<FaultProfile>& table() {
  using S = FaultProfile;
  static const Table<S> t{
      {
          field("pool", &S::pool),
          field("crash_mtbf_s", &S::crash_mtbf_s),
          field("spot_windows", &S::spot_windows),
          field("degrade_mtbf_s", &S::degrade_mtbf_s),
          field("degrade_factor", &S::degrade_factor),
          field("degrade_duration_s", &S::degrade_duration_s),
      },
      "pool"};
  return t;
}

template <>
const Table<RecoveryPolicy>& table() {
  using S = RecoveryPolicy;
  static const Table<S> t{{
      field("max_attempts", &S::max_attempts),
      field("backoff_base_s", &S::backoff_base_s),
      field("backoff_multiplier", &S::backoff_multiplier),
      field("jitter", &S::jitter),
  }};
  return t;
}

template <>
const Table<ShedPolicy>& table() {
  using S = ShedPolicy;
  static const Table<S> t{{
      field("min_active_replicas", &S::min_active_replicas, kAlways),
      field("max_shed_priority", &S::max_shed_priority),
  }};
  return t;
}

template <>
const Table<FaultConfig>& table() {
  using S = FaultConfig;
  static const Table<S> t{{
      field("seed", &S::seed),
      field("profiles", &S::profiles, kAlways),
      field("recovery", &S::recovery),
      field("shed", &S::shed),
  }};
  return t;
}

template <>
const Table<PoolSpec>& table() {
  using S = PoolSpec;
  using P = ParallelConfig;
  static const Table<S> t{
      {
          field("name", &S::name, kAlways),
          field("sku", &S::sku_name, kAlways),
          field("role", &S::role),
          field("tensor_parallel", &S::parallel, &P::tensor_parallel),
          field("pipeline_parallel", &S::parallel, &P::pipeline_parallel),
          field("num_replicas", &S::parallel, &P::num_replicas, kAlways),
          field("cost_per_gpu_hour", &S::cost_per_gpu_hour),
          field("capacity_qps", &S::capacity_qps),
          field("autoscale", &S::autoscale),
      },
      "name"};
  return t;
}

/// deployment.execution: the sharded core's knobs.
const Table<DeploymentConfig>& execution_table() {
  static const Table<DeploymentConfig> t{{
      field("threads", &DeploymentConfig::threads, kAlways),
  }};
  return t;
}

/// The homogeneous form; the pools form writes its SKU, parallelism and
/// autoscaling per pool instead.
bool homogeneous(const DeploymentConfig& d) { return d.pools.empty(); }

template <>
const Table<DeploymentConfig>& table() {
  using S = DeploymentConfig;
  using P = ParallelConfig;
  static const Table<S> t{{
      field("sku", &S::sku_name, kAlways, homogeneous),
      field("tensor_parallel", &S::parallel, &P::tensor_parallel, kAlways,
            homogeneous),
      field("pipeline_parallel", &S::parallel, &P::pipeline_parallel,
            kAlways, homogeneous),
      field("num_replicas", &S::parallel, &P::num_replicas, kAlways,
            homogeneous),
      field("pools", &S::pools),
      field("scheduler", &S::scheduler),
      field("global_scheduler", &S::global_scheduler),
      field("async_pipeline_comm", &S::async_pipeline_comm),
      field("disagg", &S::disagg),
      field("autoscale", &S::autoscale, Emit::kUnlessDefault, homogeneous),
      field("prefix_cache", &S::prefix_cache),
      field("faults", &S::faults),
      view("execution", execution_table),
  }};
  return t;
}

template <>
const Table<ArrivalSpec>& table() {
  using S = ArrivalSpec;
  static const Table<S> t{{
      field("kind", &S::kind, kAlways),
      field("qps", &S::qps, kAlways),
      field("cv", &S::cv, kAlways),
  }};
  return t;
}

/// The synthetic form; a named scenario writes its name, plus its request
/// count when the spec overrides the scenario's own.
bool synthetic(const WorkloadSpec& w) { return w.synthetic(); }
bool synthetic_or_counted(const WorkloadSpec& w) {
  return w.synthetic() || w.num_requests != 0;
}

template <>
const Table<WorkloadSpec>& table() {
  using S = WorkloadSpec;
  static const Table<S> t{{
      field("scenario", &S::scenario),
      field("trace", &S::trace, kAlways, synthetic),
      field("arrival", &S::arrival, kAlways, synthetic),
      field("num_requests", &S::num_requests, kAlways, synthetic_or_counted),
  }};
  return t;
}

template <>
struct Codec<WorkloadSpec> : Section<WorkloadSpec> {
  static void read(const JsonValue& j, WorkloadSpec& w,
                   const std::string& path) {
    Section<WorkloadSpec>::read(j, w, path);
    // A named scenario keeps its own request count unless the spec sets one.
    if (j.find("scenario") != nullptr && j.find("num_requests") == nullptr)
      w.num_requests = 0;
  }
};

template <>
const Table<SloSpec>& table() {
  using S = SloSpec;
  static const Table<S> t{{
      field("ttft_target_s", &S::ttft_target, kAlways),
      field("tbt_target_s", &S::tbt_target, kAlways),
  }};
  return t;
}

template <>
const Table<SearchSpace>& table() {
  using S = SearchSpace;
  static const Table<S> t{{
      field("skus", &S::skus),
      field("tp_degrees", &S::tp_degrees),
      field("pp_degrees", &S::pp_degrees),
      field("max_total_gpus", &S::max_total_gpus),
      field("schedulers", &S::schedulers),
      field("batch_sizes", &S::batch_sizes),
      field("sarathi_chunk_sizes", &S::sarathi_chunk_sizes),
      field("max_tokens_per_iteration", &S::max_tokens_per_iteration),
      field("global_scheduler", &S::global_scheduler),
  }};
  return t;
}

template <>
const Table<ElasticPlanSpec>& table() {
  using S = ElasticPlanSpec;
  static const Table<S> t{{
      field("slo_target", &S::slo_target, kAlways),
      field("max_replicas", &S::max_replicas, kAlways),
      field("burst_slots", &S::burst_slots, kAlways),
  }};
  return t;
}

template <>
const Table<ObsSpec>& table() {
  using S = ObsSpec;
  static const Table<S> t{{
      field("trace", &S::trace),
      field("trace_capacity", &S::trace_capacity),
      field("rolling_window_s", &S::rolling_window_s),
      field("analyze", &S::analyze),
  }};
  return t;
}

template <>
const Table<SweepAxes>& table() {
  using S = SweepAxes;
  static const Table<S> t{{
      field("sku", &S::sku),
      field("tensor_parallel", &S::tensor_parallel),
      field("pipeline_parallel", &S::pipeline_parallel),
      field("num_replicas", &S::num_replicas),
      field("scheduler", &S::scheduler),
      field("max_batch_size", &S::max_batch_size),
      field("chunk_size", &S::chunk_size),
      field("qps", &S::qps),
  }};
  return t;
}

template <>
const Table<ExperimentSpec>& table() {
  using S = ExperimentSpec;
  static const Table<S> t{{
      field("name", &S::name, kAlways),
      field("mode", &S::mode, kAlways),
      field("model", &S::model, kAlways),
      field("deployment", &S::deployment, kAlways),
      field("workload", &S::workload, kAlways),
      field("slo", &S::slo),
      field("seed", &S::seed),
      field("tp_degrees", &S::tp_degrees),
      field("num_threads", &S::num_threads),
      field("search", &S::search),
      field("elastic", &S::elastic),
      field("obs", &S::obs),
      field("sweep", &S::sweep),
  }};
  return t;
}

}  // namespace

JsonValue ExperimentSpec::to_json() const {
  return Codec<ExperimentSpec>::write(*this, ExperimentSpec{});
}

std::string ExperimentSpec::to_json_string() const { return to_json().dump(); }

ExperimentSpec ExperimentSpec::from_json(const JsonValue& json) {
  ExperimentSpec spec;
  Codec<ExperimentSpec>::read(json, spec, "");
  return spec;
}

ExperimentSpec ExperimentSpec::from_json_string(const std::string& text) {
  return from_json(JsonValue::parse(text));
}

}  // namespace vidur
