#include "xpstream/planner.h"

#include <algorithm>

#include "common/string_util.h"
#include "planner/cost_model.h"
#include "stream/engine_registry.h"
#include "xpath/ast.h"

namespace xpstream {

size_t CostEstimate::PredictedPeakBytes(size_t bytes_per_entry) const {
  return (state_entries + automaton_entries) * bytes_per_entry +
         buffered_bytes + aux_bytes;
}

std::string CostEstimate::ToString() const {
  return StringPrintf(
      "state_entries=%zu automaton_entries=%zu buffered_bytes=%zu "
      "aux_bytes=%zu lower_bound_bits=%zu predicted_peak_bytes=%zu",
      state_entries, automaton_entries, buffered_bytes, aux_bytes,
      lower_bound_bits, PredictedPeakBytes());
}

const EnginePrediction* QueryPlan::Choice() const {
  for (const EnginePrediction& prediction : ranking) {
    if (prediction.supported) return &prediction;
  }
  return nullptr;
}

std::string QueryPlan::ToString() const {
  std::string out;
  for (const EnginePrediction& prediction : ranking) {
    out += StringPrintf("%-10s %s predicted_peak_bytes=%zu (%s)\n",
                        prediction.engine.c_str(),
                        prediction.supported ? "ok  " : "skip",
                        prediction.cost.PredictedPeakBytes(),
                        prediction.why.c_str());
  }
  return out;
}

QueryPlan PlanQuery(const CompiledQuery& query,
                    const DocumentProfile& profile) {
  return BuildQueryPlan(*query.query(), profile);
}

Result<CostEstimate> EstimateEngineCost(const CompiledQuery& query,
                                        const DocumentProfile& profile,
                                        const std::string& engine) {
  const auto& engines = EngineNames();
  if (std::find(engines.begin(), engines.end(), engine) == engines.end()) {
    return Status::NotFound("planner knows no engine named \"" + engine +
                            "\"");
  }
  return EstimateCostForEngine(engine, AnalyzeQueryShape(*query.query()),
                               profile);
}

}  // namespace xpstream
