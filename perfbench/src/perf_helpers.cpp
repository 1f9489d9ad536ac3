#include "perf_helpers.h"

#include <fstream>
#include <sstream>

#include "common/check.h"

namespace perfbench {

namespace {

/// Value of a "<key>:   <n> kB" line, or -1 when the key is absent.
std::int64_t status_kb(const std::string& text, const std::string& key) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.compare(0, key.size() + 1, key + ":") != 0) continue;
    std::istringstream fields(line.substr(key.size() + 1));
    std::int64_t kb = -1;
    std::string unit;
    fields >> kb >> unit;
    VIDUR_CHECK_MSG(!fields.fail() && kb >= 0 && unit == "kB",
                    "malformed /proc status line: '" << line << "'");
    return kb;
  }
  return -1;
}

}  // namespace

ProcMemory parse_proc_status(const std::string& text) {
  const std::int64_t rss = status_kb(text, "VmRSS");
  const std::int64_t hwm = status_kb(text, "VmHWM");
  VIDUR_CHECK_MSG(rss >= 0 && hwm >= 0,
                  "/proc status text lacks a VmRSS or VmHWM line");
  return ProcMemory{rss * 1024, hwm * 1024};
}

ProcMemory read_proc_memory() {
  std::ifstream in("/proc/self/status");
  VIDUR_CHECK_MSG(in.good(), "cannot open /proc/self/status");
  std::stringstream text;
  text << in.rdbuf();
  return parse_proc_status(text.str());
}

TimingBackend::TimingBackend(std::unique_ptr<vidur::ExecutionBackend> inner,
                             BackendTimes* times)
    : inner_(std::move(inner)), times_(times) {
  VIDUR_CHECK(inner_ != nullptr && times_ != nullptr);
}

vidur::StageTiming TimingBackend::stage_timing(const vidur::BatchSpec& batch,
                                               vidur::StageId stage) {
  const double t0 = now_s();
  const vidur::StageTiming out = inner_->stage_timing(batch, stage);
  times_->seconds += now_s() - t0;
  ++times_->stage_timing_calls;
  return out;
}

vidur::StageTiming TimingBackend::stage_timing(
    const vidur::BatchSpec& batch, const vidur::BatchAggregates& agg,
    vidur::StageId stage) {
  const double t0 = now_s();
  const vidur::StageTiming out = inner_->stage_timing(batch, agg, stage);
  times_->seconds += now_s() - t0;
  ++times_->stage_timing_calls;
  return out;
}

vidur::Seconds TimingBackend::cpu_overhead(const vidur::BatchSpec& batch) {
  const double t0 = now_s();
  const vidur::Seconds out = inner_->cpu_overhead(batch);
  times_->seconds += now_s() - t0;
  ++times_->cpu_overhead_calls;
  return out;
}

vidur::OpTimeBreakdown TimingBackend::stage_breakdown(
    const vidur::BatchSpec& batch, vidur::StageId stage) {
  return inner_->stage_breakdown(batch, stage);
}

}  // namespace perfbench
