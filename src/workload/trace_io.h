// Trace persistence: save generated traces and replay externally captured
// ones. This is the analogue of Vidur replaying request traces derived from
// real datasets (LMSys-Chat-1M etc., paper §5.1) — a downstream user points
// the simulator at a CSV of their production requests instead of a synthetic
// generator.
//
// Schema (header required, column order free):
//   request_id, arrival_time, prefill_tokens, decode_tokens
#pragma once

#include <string>

#include "workload/request.h"

namespace vidur {

/// Render a trace as CSV text.
std::string trace_to_csv(const Trace& trace);

/// Parse a trace from CSV text. Validates the schema and every row (finite
/// non-negative arrival; token counts in [1, 2^31 - 1]; tenant in
/// [0, 2^31 - 1]; priority a 32-bit integer; unique ids) and returns the
/// requests sorted by arrival time. Throws vidur::Error on malformed input,
/// naming the request and the column.
Trace trace_from_csv(const std::string& text);

/// File variants of the above. Throw vidur::Error on I/O failure.
void save_trace_csv(const std::string& path, const Trace& trace);
Trace load_trace_csv(const std::string& path);

}  // namespace vidur
