#include "workload/trace_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <unordered_set>

#include "common/check.h"
#include "common/csv.h"

namespace vidur {

namespace {

// Round-trippable double formatting (std::to_string keeps only 6 digits).
std::string fmt_exact(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

/// An integer field, or nullopt when `text` is not one within int64.
std::optional<std::int64_t> to_int(const std::string& text) {
  std::int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size())
    return std::nullopt;
  return value;
}

/// A floating-point field, or nullopt when `text` is not one within the
/// double range.
std::optional<double> to_double(const std::string& text) {
  try {
    std::size_t consumed = 0;
    const double value = std::stod(text, &consumed);
    if (consumed != text.size()) return std::nullopt;
    return value;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

/// The loader's error for one field: every message names the request and
/// the column.
Error field_error(RequestId id, const char* column, const std::string& what) {
  return Error("trace CSV: request " + std::to_string(id) + ", column " +
               column + ": " + what);
}

CsvWriter trace_writer(const Trace& trace) {
  CsvWriter writer({"request_id", "arrival_time", "prefill_tokens",
                    "decode_tokens", "tenant", "priority"});
  for (const Request& r : trace) {
    writer.add_row({std::to_string(r.id), fmt_exact(r.arrival_time),
                    std::to_string(r.prefill_tokens),
                    std::to_string(r.decode_tokens), std::to_string(r.tenant),
                    std::to_string(r.priority)});
  }
  return writer;
}

Trace trace_from_doc(const CsvDocument& doc) {
  const std::size_t id_col = doc.column("request_id");
  const std::size_t arrival_col = doc.column("arrival_time");
  const std::size_t prefill_col = doc.column("prefill_tokens");
  const std::size_t decode_col = doc.column("decode_tokens");
  // Multi-tenant tags arrived after the 4-column format; traces written
  // before then load with every request at the defaults.
  const std::size_t tenant_col = doc.try_column("tenant");
  const std::size_t priority_col = doc.try_column("priority");

  // Token counts, tenant and priority must fit the 32-bit range the spec
  // reader enforces, so no token sum overflows; arrival times must be
  // finite, so the arrival sort and the event queue see a total order.
  constexpr std::int64_t kMax32 = std::numeric_limits<std::int32_t>::max();
  constexpr std::int64_t kMin32 = std::numeric_limits<std::int32_t>::min();
  Trace trace;
  trace.reserve(doc.rows.size());
  std::unordered_set<RequestId> seen;
  seen.reserve(doc.rows.size());
  for (std::size_t i = 0; i < doc.rows.size(); ++i) {
    const std::vector<std::string>& row = doc.rows[i];
    Request r;
    const std::optional<std::int64_t> id = to_int(row[id_col]);
    if (!id)
      throw Error("trace CSV: data row " + std::to_string(i + 1) +
                  ", column request_id: bad value '" + row[id_col] + "'");
    r.id = *id;
    const auto integer = [&](std::size_t col, const char* column,
                             std::int64_t lo) {
      const std::optional<std::int64_t> value = to_int(row[col]);
      if (!value)
        throw field_error(r.id, column, "bad value '" + row[col] + "'");
      if (*value < lo || *value > kMax32)
        throw field_error(r.id, column,
                          row[col] + " is outside [" + std::to_string(lo) +
                              ", " + std::to_string(kMax32) + "]");
      return *value;
    };
    const std::optional<double> arrival = to_double(row[arrival_col]);
    if (!arrival)
      throw field_error(r.id, "arrival_time",
                        "bad value '" + row[arrival_col] + "'");
    if (!std::isfinite(*arrival) || *arrival < 0)
      throw field_error(r.id, "arrival_time",
                        row[arrival_col] + " is not a finite time >= 0");
    r.arrival_time = *arrival;
    r.prefill_tokens = integer(prefill_col, "prefill_tokens", 1);
    r.decode_tokens = integer(decode_col, "decode_tokens", 1);
    if (tenant_col != CsvDocument::npos)
      r.tenant = static_cast<TenantId>(integer(tenant_col, "tenant", 0));
    if (priority_col != CsvDocument::npos)
      r.priority = static_cast<int>(integer(priority_col, "priority", kMin32));
    if (!seen.insert(r.id).second)
      throw Error("trace CSV: duplicate request_id " + std::to_string(r.id));
    trace.push_back(r);
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const Request& a, const Request& b) {
                     return a.arrival_time < b.arrival_time;
                   });
  return trace;
}

}  // namespace

std::string trace_to_csv(const Trace& trace) {
  return trace_writer(trace).str();
}

Trace trace_from_csv(const std::string& text) {
  return trace_from_doc(parse_csv(text));
}

void save_trace_csv(const std::string& path, const Trace& trace) {
  trace_writer(trace).write_file(path);
}

Trace load_trace_csv(const std::string& path) {
  return trace_from_doc(read_csv_file(path));
}

}  // namespace vidur
