#include "planner/cost_model.h"

#include <algorithm>
#include <set>

#include "lowerbounds/theory.h"
#include "stream/engine_registry.h"
#include "xpath/ast.h"

namespace xpstream {

namespace {

/// Stack-shaped engines (nfa, lazy_dfa) charge 8 bytes of auxiliary
/// stack per open element level, next to one table entry per level —
/// matching what their stats() report per document.
constexpr size_t kStackAuxBytesPerLevel = 8;

/// One open level of document may be live at a time beyond the deepest
/// element (the document envelope); "+ 2" throughout keeps depth-0
/// profiles from pricing anything at zero.
size_t StackLevels(const DocumentProfile& profile) {
  return profile.max_depth + 2;
}

}  // namespace

QueryShape AnalyzeQueryShape(const Query& query) {
  QueryShape shape;
  shape.size = query.size();
  std::set<std::string> names;
  for (const QueryNode* node : query.AllNodes()) {
    if (node->is_root()) continue;
    shape.depth = std::max(shape.depth, node->Depth());
    if (node->axis() == Axis::kDescendant) shape.has_descendant = true;
    if (node->predicate() != nullptr) shape.has_predicates = true;
    if (!node->is_wildcard()) names.insert(node->ntest());
  }
  shape.distinct_names = names.size();
  // Walk the location path for the step count and the DFA window: the
  // longest run of consecutive wildcard steps that a descendant axis
  // upstream turns into "remember which of the last k levels matched".
  bool descendant_seen = false;
  size_t run = 0;
  for (const QueryNode* n = query.root()->successor(); n != nullptr;
       n = n->successor()) {
    ++shape.steps;
    if (n->axis() == Axis::kDescendant) descendant_seen = true;
    if (descendant_seen && n->is_wildcard()) {
      run += 1;
      shape.wildcard_window = std::max(shape.wildcard_window, run);
    } else {
      run = 0;
    }
  }
  return shape;
}

CostEstimate EstimateCostForEngine(const std::string& engine,
                                   const QueryShape& shape,
                                   const DocumentProfile& profile) {
  CostEstimate cost;
  // The algorithm-independent floor: Ω(r) bits on recursive input
  // (Thm 4.5) — r is the document depth when the query recurses into
  // the document via a descendant axis, else bounded by the query's
  // own depth — plus the candidate text any predicate may buffer.
  const size_t recursion = shape.has_descendant
                               ? profile.max_depth
                               : std::min(shape.depth, profile.max_depth);
  cost.lower_bound_bits = RecursionDepthBitsBound(recursion);
  if (shape.has_predicates) {
    cost.lower_bound_bits +=
        8 * CandidateBufferBytesBound(profile.max_text_bytes);
  }

  if (engine == "naive") {
    // Buffers the whole document as a tree, then evaluates. Calibrated
    // against the tree builder's accounting: ~6 table-entry charges
    // (96 bytes) per SAX event, plus the document's text/name bytes.
    cost.state_entries = 6 * profile.max_events;
    cost.buffered_bytes = profile.max_document_bytes;
    return cost;
  }
  if (engine == "nfa") {
    // One NFA state set per open element level.
    cost.state_entries = StackLevels(profile);
    cost.aux_bytes = kStackAuxBytesPerLevel * StackLevels(profile);
    return cost;
  }
  if (engine == "lazy_dfa") {
    // Materialized states: the linear spine plus the window-subset
    // blowup (E5). The effective window counts the descendant step
    // itself next to the k wildcards — measured on //a/*^k the DFA
    // materializes 2^(k+1) states, not 2^k. Transitions fan each state
    // out over the query-local alphabet (distinct node tests + OTHER),
    // the lazy upper bound.
    const size_t window =
        shape.wildcard_window + (shape.has_descendant ? 1 : 0);
    const size_t states =
        shape.size + DfaStateBlowupBound(window, profile.max_depth);
    const size_t alphabet = shape.distinct_names + 1;
    cost.automaton_entries = states + states * alphabet;
    cost.state_entries = StackLevels(profile);  // the run stack
    cost.aux_bytes = kStackAuxBytesPerLevel * StackLevels(profile);
    return cost;
  }
  if (engine == "frontier") {
    // Thm 8.8: |Q| tuples per live recursion level, plus candidate
    // text buffered until its predicate decides.
    cost.state_entries = FrontierTupleBound(shape.size, recursion);
    cost.buffered_bytes = CandidateBufferBytesBound(profile.max_text_bytes);
    return cost;
  }
  if (engine == "nfa_index") {
    // Shared NFA: ~one automaton state per step (worst case, no prefix
    // sharing with other subscriptions) plus the active (state, level)
    // set — descendant self-loops keep up to one state per query step
    // live at every open level.
    cost.automaton_entries = shape.steps + 1;
    cost.state_entries = StackLevels(profile) * std::max<size_t>(1, shape.steps);
    return cost;
  }
  return cost;
}

QueryPlan BuildQueryPlan(const Query& query, const DocumentProfile& profile) {
  const QueryShape shape = AnalyzeQueryShape(query);
  QueryPlan plan;
  plan.ranking.reserve(EngineNames().size());
  for (const std::string& engine : EngineNames()) {
    EnginePrediction prediction;
    prediction.engine = engine;
    prediction.cost = EstimateCostForEngine(engine, shape, profile);
    const Status gate = CheckEngineSupports(engine, query);
    prediction.supported = gate.ok();
    prediction.why = gate.ok() ? "inside the engine's fragment"
                               : gate.message();
    plan.ranking.push_back(std::move(prediction));
  }
  std::stable_sort(plan.ranking.begin(), plan.ranking.end(),
                   [](const EnginePrediction& a, const EnginePrediction& b) {
                     if (a.supported != b.supported) return a.supported;
                     return a.cost.PredictedPeakBytes() <
                            b.cost.PredictedPeakBytes();
                   });
  return plan;
}

}  // namespace xpstream
