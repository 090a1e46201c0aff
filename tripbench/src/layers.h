#ifndef TRIPBENCH_LAYERS_H_
#define TRIPBENCH_LAYERS_H_

/// \file
/// The traced run's in-process half: the workload's own inputs pushed
/// through each layer's public functions, one layer at a time, with a
/// span around every call. Each layer gets an equal share of the time
/// budget and at least one full pass over the corpus.

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace tripbench {

struct LayerReport {
  Metrics metrics;  ///< the xml.*, stream.*, api.* and pipeline.* metrics
  /// Per-document medians used to split the document trip.
  double parse_p50_us = 0;
  double match_p50_us = 0;
  double api_p50_us = 0;     ///< chunked Engine::Feed + FinishDocument
  double queue_wait_p50_us = 0;
  /// In-process calls checked, and those that failed or whose verdicts
  /// differ from the reference.
  size_t attempted = 0;
  size_t failures = 0;
};

LayerReport MeasureLayers(const Workload& w, double budget_s, Tracer* tracer);

}  // namespace tripbench

#endif  // TRIPBENCH_LAYERS_H_
