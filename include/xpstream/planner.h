#ifndef XPSTREAM_PUBLIC_PLANNER_H_
#define XPSTREAM_PUBLIC_PLANNER_H_

/// \file
/// The query planner: prices a subscription's peak memory on every
/// built-in engine *before* any document streams, from query shape and
/// a DocumentProfile of the stream. The estimator formulas restate the
/// paper's §4/§8 bounds (src/lowerbounds/theory.h) with the constant
/// factors of this codebase's data structures; docs/cost_model.md
/// derives each one and shows worked examples against measured peaks.
///
/// The Engine plans each new evaluation slot once, and that one plan
/// serves two decisions: EngineOptions::engine = "auto" routes the slot
/// to the predicted-cheapest engine that accepts it, and
/// EngineOptions::memory_budget_bytes admission-controls it when its
/// predicted peak would overrun a tenant budget. The plan is exactly
/// the PlanQuery() ranking below, so a caller can reproduce (and audit)
/// every decision the engine makes:
///
///   auto query = CompileQuery("//a/*/*/*");
///   DocumentProfile profile;          // or Engine::observed_profile()
///   QueryPlan plan = PlanQuery(*query, profile);
///   // plan.ranking.front().engine == what "auto" would pick

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "xml/stats.h"
#include "xpstream/query.h"

namespace xpstream {

/// Predicted peak footprint of one subscription on one engine, in the
/// same gauge vocabulary as MemoryStats so predictions and measurements
/// line up column by column.
struct CostEstimate {
  /// Live table/stack/frontier entries (MemoryStats::table_entries).
  size_t state_entries = 0;
  /// Automaton states + transition-table entries materialized.
  size_t automaton_entries = 0;
  /// Document text the engine must buffer, in bytes.
  size_t buffered_bytes = 0;
  /// Auxiliary structure bytes (stacks, counters).
  size_t aux_bytes = 0;
  /// The paper's information-theoretic floor for this query/profile in
  /// bits — what *no* streaming algorithm can beat (Thm 4.5 / Thm 8.8).
  size_t lower_bound_bits = 0;

  /// The single number admission control compares against a budget:
  /// entries are charged `bytes_per_entry` (16, matching
  /// MemoryStats::PeakBytes) plus the byte gauges.
  size_t PredictedPeakBytes(size_t bytes_per_entry = 16) const;

  /// One-line key=value rendering.
  std::string ToString() const;
};

/// One engine's row in a query plan.
struct EnginePrediction {
  /// Registry name ("naive", "nfa", "lazy_dfa", "frontier", "nfa_index").
  std::string engine;
  /// Predicted peak cost on this engine.
  CostEstimate cost;
  /// Whether this engine accepts the query: the engine's own fragment
  /// gate, the same check its Subscribe runs first, so the plan and
  /// the engine never disagree.
  bool supported = false;
  /// One-phrase rationale: the engine's own rejection message when
  /// unsupported.
  std::string why;
};

/// The full per-engine ranking for one query: supported engines first,
/// cheapest first within each group. This ordering *is* the "auto"
/// engine's candidate order and the admission controller's price list.
struct QueryPlan {
  /// All built-in engines, supported-then-cheapest first.
  std::vector<EnginePrediction> ranking;

  /// The entry "auto" subscribes on: the first supported entry, or
  /// nullptr when no engine accepts the query.
  const EnginePrediction* Choice() const;

  /// Multi-line table rendering for logs and tools.
  std::string ToString() const;
};

/// Prices `query` on every built-in engine under `profile`.
QueryPlan PlanQuery(const CompiledQuery& query, const DocumentProfile& profile);

/// Prices `query` on one engine; kNotFound for unknown engine names
/// ("auto" is not an engine and is not priceable — plan it instead).
Result<CostEstimate> EstimateEngineCost(const CompiledQuery& query,
                                        const DocumentProfile& profile,
                                        const std::string& engine);

}  // namespace xpstream

#endif  // XPSTREAM_PUBLIC_PLANNER_H_
