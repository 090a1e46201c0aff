#ifndef XPSTREAM_PLANNER_AUTO_MATCHER_H_
#define XPSTREAM_PLANNER_AUTO_MATCHER_H_

/// \file
/// The "auto" meta-engine: a routing Matcher that prices every incoming
/// subscription with the planner (PlanQuery against the pipeline's
/// DocumentProfile) and subscribes it on the predicted-cheapest member
/// engine that accepts it. Members are real registry engines, created
/// lazily on first use and fed every event in lockstep; verdicts, sink
/// reports and stats are merged back into the caller's global slot
/// space.
///
/// Deliberately *not* registered in the EngineRegistry: "auto" is a
/// policy over engines, not an engine, and keeping it out of
/// AvailableEngines() keeps engine-enumeration loops (tests, benches,
/// the server's caps listing) meaning "concrete algorithms".

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stream/matcher.h"

namespace xpstream {

class AutoMatcher : public Matcher {
 public:
  /// Creates an auto matcher wired into the pipeline: members share
  /// `context`'s SymbolTable (or the matcher's private one), and every
  /// Subscribe consults `context.profile` (assumed defaults when null).
  static Result<std::unique_ptr<Matcher>> Create(
      const PipelineContext& context);

  std::string name() const override { return "auto"; }
  std::string EngineForSlot(size_t slot) const override;
  Status Subscribe(size_t slot, const Query* query) override;
  Status Unsubscribe(size_t slot) override;
  size_t NumSubscriptions() const override { return routes_.size(); }
  Status Reset() override;
  Status OnSymbolizedEvent(const Event& event, Symbol name_sym) override;
  Result<std::vector<bool>> Verdicts() const override;
  void EnableShortCircuit(bool on) override;
  const MemoryStats& stats() const override;

 private:
  /// One lazily created member engine and its local→global slot map.
  struct Member;
  /// Per-member MatchSink translating local reports into the shared
  /// pending buffer (global slots), flushed in contract order per event.
  class Relay;
  /// Where one global slot landed.
  struct Route {
    size_t member = 0;  ///< index into members_
    size_t local = 0;   ///< slot inside that member
  };

  explicit AutoMatcher(const PipelineContext& context);

  /// Returns the index of the member running `engine`, creating it (and
  /// its relay) on first use.
  Result<size_t> EnsureMember(const std::string& engine);

  void OnMemberMatch(size_t member, size_t local, size_t ordinal);

  /// Delivers buffered member reports to the sink sorted by
  /// (ordinal, global slot) — the MatchSink contract order.
  void FlushPending();

  PipelineContext context_;
  std::vector<Member> members_;
  std::vector<Route> routes_;
  std::vector<std::pair<size_t, size_t>> pending_;  ///< (ordinal, slot)
  mutable MemoryStats stats_;  // aggregated over members on demand
};

}  // namespace xpstream

#endif  // XPSTREAM_PLANNER_AUTO_MATCHER_H_
