#ifndef XPSTREAM_PLANNER_COST_MODEL_H_
#define XPSTREAM_PLANNER_COST_MODEL_H_

/// \file
/// The estimator behind include/xpstream/planner.h: per-engine peak
/// cost from query shape and a DocumentProfile. Formulas restate the
/// paper's bounds (lowerbounds/theory.h) with this codebase's constant
/// factors; docs/cost_model.md is the authoritative derivation and
/// carries the worked examples. Internal — external callers go through
/// the public PlanQuery/EstimateEngineCost.

#include <string>

#include "xml/stats.h"
#include "xpstream/planner.h"

namespace xpstream {

class Query;

/// The query-side inputs of the cost formulas, extracted once per
/// subscription.
struct QueryShape {
  size_t size = 0;            ///< |Q|: query tree nodes incl. root.
  size_t depth = 0;           ///< Query tree depth.
  size_t steps = 0;           ///< Successor-chain (location path) length.
  size_t distinct_names = 0;  ///< Distinct non-wildcard node tests.
  /// The DFA memory window: longest run of consecutive wildcard steps
  /// with a descendant axis anywhere upstream — the k of //a/*^k, the
  /// driver of the 2^k transition-table blowup (experiment E5).
  size_t wildcard_window = 0;
  bool has_descendant = false; ///< Any descendant axis (not closure-free).
  bool has_predicates = false; ///< Any predicate anywhere.
};

/// Measures `query` for the cost formulas.
QueryShape AnalyzeQueryShape(const Query& query);

/// Prices `query` on `engine` under `profile`. `engine` must be one of
/// EngineNames() (stream/engine_registry.h).
CostEstimate EstimateCostForEngine(const std::string& engine,
                                   const QueryShape& shape,
                                   const DocumentProfile& profile);

/// Builds the full supported-then-cheapest ranking (the body of the
/// public PlanQuery). A row is supported exactly when the engine's own
/// fragment gate (CheckEngineSupports) accepts the query; exact cost
/// ties keep EngineNames() order.
QueryPlan BuildQueryPlan(const Query& query, const DocumentProfile& profile);

}  // namespace xpstream

#endif  // XPSTREAM_PLANNER_COST_MODEL_H_
