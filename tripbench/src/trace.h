#ifndef TRIPBENCH_TRACE_H_
#define TRIPBENCH_TRACE_H_

/// \file
/// Spans for the traced run. The benchmark records one span around each
/// call it makes into a layer's public functions (XmlParser::Feed/Finish,
/// Engine::Subscribe/FilterEvents/Feed/FinishDocument, the EnginePool
/// submit-to-done sojourn, Client::Feed/FinishDocument, the STATS
/// scrape). Spans stay in memory and are written as JSONL only after
/// measuring ends, so tracing does no I/O on the measured path.

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "report.h"

namespace tripbench {

/// One timed interval. Spans of one document share `doc`; `parent` is
/// the index of the enclosing span, or -1.
struct Span {
  const char* name;  // static string
  int64_t start_ns;
  int64_t end_ns;
  int64_t parent;
  int64_t doc;
};

/// A layer's self time: span duration minus the part its child spans
/// cover, aggregated over every span of one name.
struct SelfTime {
  std::string name;
  size_t count = 0;
  double p50_us = 0;
  double mean_us = 0;
};

/// Thread-safe in-memory span recorder. It keeps at most
/// `per_name_capacity` spans of each name and counts the rest as
/// dropped, so a hot loop neither grows memory without bound nor crowds
/// out the spans of the layers measured after it.
class Tracer {
 public:
  explicit Tracer(size_t per_name_capacity);

  /// Opens a span whose end is set by Close(); children recorded in
  /// between name its index as their parent. Returns -1 when dropped.
  int64_t Open(const char* name, Clock::time_point start, int64_t parent,
               int64_t doc);
  void Close(int64_t index, Clock::time_point end);

  /// Records a finished span; returns its index, or -1 when dropped.
  int64_t Record(const char* name, Clock::time_point start,
                 Clock::time_point end, int64_t parent, int64_t doc);

  /// Self times per span name, in first-recorded order.
  std::vector<SelfTime> SelfTimes() const;

  /// Writes one JSON object per span. Returns false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

  size_t size() const;
  size_t dropped() const;

 private:
  int64_t Nanos(Clock::time_point t) const;

  const Clock::time_point origin_;
  const size_t per_name_capacity_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;                          // guarded by mu_
  std::unordered_map<const char*, size_t> per_name_;  // guarded by mu_
  size_t dropped_ = 0;                               // guarded by mu_
};

/// Records `name` around one call when a tracer is present.
template <typename Fn>
auto Traced(Tracer* tracer, const char* name, int64_t parent, int64_t doc,
            Fn&& fn) {
  const Clock::time_point start = Clock::now();
  auto result = fn();
  if (tracer != nullptr) {
    tracer->Record(name, start, Clock::now(), parent, doc);
  }
  return result;
}

}  // namespace tripbench

#endif  // TRIPBENCH_TRACE_H_
