// Helpers of the repository benchmark (perfbench/): process-memory probes
// and the timing execution backend of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "execution/execution_backend.h"

namespace perfbench {

/// Resident-set figures of one process, in bytes.
struct ProcMemory {
  std::int64_t rss_bytes = 0;  ///< VmRSS: resident now
  std::int64_t hwm_bytes = 0;  ///< VmHWM: peak resident so far
};

/// Parse the VmRSS / VmHWM lines of a /proc/<pid>/status text. Throws
/// vidur::Error when either line is missing or malformed.
ProcMemory parse_proc_status(const std::string& text);
/// parse_proc_status of /proc/self/status.
ProcMemory read_proc_memory();

/// Monotonic wall-clock seconds since an arbitrary epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host time and call counts spent in the execution backends of one run.
struct BackendTimes {
  std::int64_t stage_timing_calls = 0;
  std::int64_t cpu_overhead_calls = 0;
  double seconds = 0.0;  ///< summed over stage_timing and cpu_overhead
};

/// Delegating backend that times every stage_timing / cpu_overhead call
/// into the wrapped backend. Results are returned unchanged; each overload
/// forwards to the same overload of the inner backend. `times` is borrowed
/// and must outlive this object; it is not synchronized, so the run must
/// be single-threaded.
class TimingBackend final : public vidur::ExecutionBackend {
 public:
  TimingBackend(std::unique_ptr<vidur::ExecutionBackend> inner,
                BackendTimes* times);

  vidur::StageTiming stage_timing(const vidur::BatchSpec& batch,
                                  vidur::StageId stage) override;
  vidur::StageTiming stage_timing(const vidur::BatchSpec& batch,
                                  const vidur::BatchAggregates& agg,
                                  vidur::StageId stage) override;
  vidur::Seconds cpu_overhead(const vidur::BatchSpec& batch) override;
  vidur::OpTimeBreakdown stage_breakdown(const vidur::BatchSpec& batch,
                                         vidur::StageId stage) override;

 private:
  std::unique_ptr<vidur::ExecutionBackend> inner_;
  BackendTimes* times_;
};

}  // namespace perfbench
