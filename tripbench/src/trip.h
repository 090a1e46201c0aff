#ifndef TRIPBENCH_TRIP_H_
#define TRIPBENCH_TRIP_H_

/// \file
/// The document trip, end to end: a freshly spawned xpstreamd driven
/// over loopback with the real Client and wire protocol.
///
/// Load model: every publisher connection is a closed loop. It streams
/// one document as DOC_CHUNK frames plus DOC_END, then waits until every
/// subscriber connection has received that document's DOC_DONE before it
/// sends the next one. A control connection sends a SUBSCRIBE/UNSUBSCRIBE
/// pair at a fixed interval beside the documents. A serial server refuses
/// subscription changes while a document streams, so there the pair is
/// slotted in between two documents; the pooled server takes it mid-
/// traffic (the pool quiesces internally).

#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace tripbench {

struct TripOptions {
  std::string server_binary;  ///< path to xpstreamd
  double measure_s = 10.0;    ///< untraced measured phase
  double traced_s = 0.0;      ///< traced phase after it (0 = none)
  Tracer* tracer = nullptr;   ///< receives the traced phase's spans
};

/// Samples of one measured phase, stamped in seconds from its start.
struct PhaseSamples {
  Clock::time_point start{};
  uint64_t docs = 0;
  uint64_t push_frames = 0;  ///< MATCH + DOC_DONE received
  /// A publisher's cycle: first DOC_CHUNK sent to the document checked,
  /// after which the closed loop sends the next one.
  std::vector<Timed> cycle_us;
  /// Trip: first DOC_CHUNK sent to DOC_DONE on the last subscriber
  /// connection.
  std::vector<Timed> latency_us;
  std::vector<Timed> first_match_us;  ///< first DOC_CHUNK -> first kEarliest MATCH
  std::vector<Timed> subscribe_us;    ///< SUBSCRIBE + UNSUBSCRIBE round trips

  /// Documents completed per second by `publishers` closed loops at
  /// their median cycle. A mean over the run would mostly count the
  /// stalls a shared host inflicts on a few documents.
  double DocsPerSecond(size_t publishers) const {
    const double cycle = SegmentedPercentile(cycle_us, 0.5);
    return cycle > 0 ? static_cast<double>(publishers) * 1e6 / cycle : 0;
  }
};

struct TripResult {
  std::vector<double> setup_s;  ///< one per set-up repetition
  PhaseSamples measured;
  PhaseSamples traced;
  double server_peak_rss_mb = 0;
  /// STATS of the last set-up's server: the control connection's reply,
  /// with dropped_frames summed over the subscriber connections.
  std::map<std::string, double> stats;
  uint64_t attempted = 0;  ///< documents + control pairs
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failures, for the log
};

/// Runs the trip for `w`. Failures (ERROR answers, timeouts, missing
/// DOC_DONEs, verdicts differing from the reference) are counted in the
/// result and end the run early; they never abort the process.
TripResult RunTrip(const Workload& w, const TripOptions& options);

}  // namespace tripbench

#endif  // TRIPBENCH_TRIP_H_
