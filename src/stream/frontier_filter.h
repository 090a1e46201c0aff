#ifndef XPSTREAM_STREAM_FRONTIER_FILTER_H_
#define XPSTREAM_STREAM_FRONTIER_FILTER_H_

/// \file
/// The paper's streaming filtering algorithm (Section 8, Figs. 20–21).
///
/// The algorithm walks the event stream while maintaining a *frontier
/// table* of (query node, expected level, matched) tuples and one shared
/// text buffer. A document element is a *candidate match* for a frontier
/// entry when its name passes the node test and its level agrees with the
/// axis; candidates of internal query nodes push the node's children onto
/// the frontier (child-axis entries are removed until the element closes,
/// the paper's space optimization); candidates of leaves capture their
/// string value through the buffer. At endElement the children entries
/// are aggregated into a *real match* bit for their parent. The document
/// matches iff the query root ends up matched.
///
/// Space is O(|Q|·r) tuples of O(log|Q| + log d + log w) bits plus w
/// buffered characters (Thm 8.8), and FS(Q) tuples for path
/// consistency-free closure-free queries.
///
/// Seven implementation notes. The first three are deliberate
/// deviations from the literal pseudo-code, each a correctness fix
/// validated by differential testing against the ground truth
/// evaluator (see DESIGN.md §5):
///  1. matched bits are OR-accumulated on re-aggregation — the literal
///     assignment can erase a real match found in a deeper recursive
///     occurrence;
///  2. child entries are deduplicated per (query node, level) — two
///     recursive candidates of the same parent would otherwise insert
///     duplicate rows;
///  3. string-value captures are tracked per open candidate rather than
///     via a single strValueStart attribute per row — one descendant-axis
///     leaf can have several nested open candidates.
///
/// The fourth is a work cut: irrelevant subtrees are skipped. When a
/// startElement is no candidate, no descendant-axis record is still
/// unmatched and no capture is open, nothing below that element can
/// change the frontier, so until it closes the filter only counts
/// levels and event ordinals and runs no handler. The skip is
/// invisible — verdicts, DecidedAt(), every gauge and SerializeState()
/// at every event equal the full walk's — and it is off while tracing
/// or collecting outputs, which observe every event.
///
/// The fifth is earliest commitment. A context's matched bit is set
/// only by the endElement aggregation, so a context whose requirements
/// are all met would otherwise wait for its ancestors to close. Each
/// record therefore carries a second bit, `committed`: whenever a
/// record becomes established (matched, committed, or a suspended
/// child-axis record known to match), the check whether all its
/// siblings are established runs upward toward the root, committing
/// every parent context the aggregation would later set. A leaf whose
/// truth set is universal is established at its element's start. The
/// verdict is decided once the root record is committed. Because
/// matched bits are OR-accumulated, each committed context is matched
/// by the time its aggregation runs, so the lookahead moves only
/// DecidedAt(): it never touches matched, which candidate selection,
/// skipping, the aggregation and every gauge read. It adds one bit per
/// tuple and no tuples, so the Thm 8.8 bound stands. Literal
/// pseudo-code mode does not propagate.
///
/// The sixth is sharing: one walk serves every member query of one
/// shape (ShapeKey: the query tree in pre-order with axes, node tests
/// and child order, without value tests), up to kMaxMembers. Member
/// queries' pre-order node ids line up, so each record's matched and
/// committed bits become per-member masks, and each leaf holds one
/// compiled value test per member (ValueTest, compiled at AddMember). A
/// record stays a candidate, and counts as an open descendant for
/// skipping, while it is unmatched for some live member. The sharing is
/// exact: a record expanded only because another member is unmatched
/// there changes nothing for a member already matched — matched bits
/// OR-accumulate, commitment skips contexts already matched or
/// committed, and a suspended child-axis record keeps that member's bit
/// and restores it at reinsertion. A walk holds one query's records, so
/// the Thm 8.8 tuple bound holds per walk, plus one bit per member per
/// record. Output collection and literal pseudo-code mode run on
/// one-member walks only.
///
/// The seventh is an index of the candidate scan. At a start tag the
/// table's deepest level is the current one (the last end tag truncated
/// everything deeper), so a candidate is either a child-axis record in
/// the table's trailing run at that level or a descendant-axis record.
/// The filter keeps the ascending table indices of its descendant-axis
/// records, updated wherever the table changes, and a start tag visits
/// the indexed records before the run, then the run: the candidates, in
/// the table order a full scan finds them in, so every record is
/// appended and every trace reads as before. Attribute records sit in
/// the run too. The index is derived from the table and holds at most
/// one entry per record, so the Thm 8.8 bound's order stands; no gauge
/// counts it.
///
/// Supported fragment (paper §8): univariate conjunctive
/// leaf-only-value-restricted Forward XPath; checked at construction.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/truth_set.h"
#include "stream/filter.h"
#include "xpath/ast.h"

namespace xpstream {

class FrontierFilter : public StreamFilter {
 public:
  /// One bit per member query, member i at bit i.
  using MemberMask = uint64_t;
  /// The most members one walk serves: the width of a MemberMask.
  static constexpr size_t kMaxMembers = 64;

  /// The engine's fragment gate, stated once: OK for a query of the
  /// §8 fragment (conjunctive, univariate, leaf-only value-restricted),
  /// kUnsupported otherwise. CompileMember calls it first, for every
  /// member; so does the planner's support check.
  static Status CheckFragment(const Query& query);

  /// Validates the fragment and builds per-node metadata, resolving
  /// each node's test to a Symbol in `symbols` (the pipeline's shared
  /// table; nullptr = a private one), so candidate selection is integer
  /// compares. `query` becomes member 0. The query must outlive the
  /// filter.
  static Result<std::unique_ptr<FrontierFilter>> Create(
      const Query* query, SymbolTable* symbols = nullptr);

  /// The key under which queries share a walk: the query tree in
  /// pre-order with each node's axis, node test and child order, and
  /// no value tests (implementation note 6).
  static std::string ShapeKey(const Query& query);

  /// Adds `query`, whose ShapeKey must equal this walk's, as the next
  /// member and returns its index. Fails on a full walk, a walk that
  /// collects outputs or runs in literal mode, and a query outside the
  /// fragment. Must not be called between startDocument and
  /// endDocument (a walk cut at its members' commitment counts as
  /// between documents). The query must outlive the filter.
  Result<size_t> AddMember(const Query* query);

  /// Stops evaluating `member` for good: its bits are no longer
  /// maintained, and the walk keeps its index.
  void RemoveMember(size_t member) { live_ &= ~(MemberMask{1} << member); }

  size_t num_members() const {
    return static_cast<size_t>(__builtin_popcountll(all_));
  }
  MemberMask live_members() const { return live_; }

  /// Members whose verdict is already provably a match: the root record
  /// is committed for them (implementation note 5).
  MemberMask committed_members() const {
    return frontier_.empty() ? 0 : frontier_[0].committed;
  }

  /// Per-member verdicts; valid only after endDocument was consumed.
  Result<MemberMask> MatchedMembers() const;

  /// The event ordinal at which `member`'s verdict was decided, or
  /// kNoEventOrdinal while undecided.
  size_t DecidedAt(size_t member) const { return decided_at_[member]; }

  Status Reset() override;
  Status OnSymbolizedEvent(const Event& event, Symbol name_sym) override;
  /// Member 0's verdict.
  Result<bool> Matched() const override;
  /// Member 0's decided position.
  size_t DecidedAt() const override { return decided_at_[0]; }
  std::string SerializeState() const override;
  const MemoryStats& stats() const override { return stats_; }
  std::string name() const override { return "FrontierFilter"; }

  /// Enables per-event snapshots of the frontier table (paper Fig. 22).
  void EnableTrace() { trace_enabled_ = true; }
  const std::vector<std::string>& trace() const { return trace_; }

  /// Full-fledged evaluation extension (paper §1: "the algorithm could
  /// be extended to provide also a full-fledged evaluation [22]").
  /// Collects the string values of the nodes FULLEVAL selects, buffering
  /// candidates until their ancestors' predicates are confirmed — the
  /// buffering the paper's follow-up work [5] proves unavoidable.
  /// Supported on a one-member walk when every step on the succession
  /// chain from the root to OUT(Q) has a child axis; returns
  /// kUnsupported otherwise.
  Status EnableOutputCollection();

  /// Selected output values in document order; valid after endDocument.
  const std::vector<std::string>& outputs() const { return outputs_; }

  /// Ablation switch: replay the paper's *literal* pseudo-code (Fig. 21
  /// line 28 assigns `matched := m` instead of OR-accumulating). Used by
  /// the ablation study to demonstrate the recursion bug the deviation
  /// in DESIGN.md §5 fixes. Not for production use. One-member walks
  /// only: kUnsupported on a shared walk.
  Status SetLiteralPseudocodeMode(bool literal);

 private:
  explicit FrontierFilter(const Query* query) : query_(query) {}

  struct Record {
    const QueryNode* node;
    size_t level;   ///< level at which candidates are expected (child axis)
    MemberMask matched;
    /// Earliest-commitment lookahead (implementation note 5): for these
    /// members this context's aggregation will set `matched`. Candidate
    /// selection, skipping and the aggregation never read it.
    MemberMask committed;
  };

  /// An open string-value capture of one candidate element for one leaf
  /// record.
  struct Capture {
    const QueryNode* node;
    size_t record_level;  ///< level of the leaf's frontier record
    size_t elem_level;    ///< level of the captured element
    size_t start;         ///< offset into buffer_
  };

  /// Runs CheckFragment, then appends `query`'s compiled value tests
  /// as the next member's.
  Status CompileMember(const Query& query);

  /// The members in `open` whose value test at leaf `node` accepts
  /// `value`.
  MemberMask TestValue(const QueryNode* node, MemberMask open,
                       std::string_view value) const;

  /// The index of the first record at `level` or deeper. Like
  /// FindRecord, it scans back from the table's end and stops at the
  /// first shallower record: almost every lookup is for one of the
  /// deepest open levels, which sit at the end. (Bisection measured
  /// slower: a mispredicted branch per step on tables of a few
  /// records.)
  size_t LevelBegin(size_t level) const;
  Record* FindRecord(const QueryNode* node, size_t level);
  /// ORs `matched` into the record (node, level), appending it first if
  /// absent. An append that would break the level order fails with
  /// kInternal.
  Status InsertRecord(const QueryNode* node, size_t level,
                      MemberMask matched);
  void UpdateGauges();
  void Snapshot(const Event& event);

  /// NTEST(u) as an integer compare: `name_sym` against the node's
  /// pre-resolved symbol (wildcards pass everything).
  bool NamePasses(const QueryNode* node, Symbol name_sym) const {
    const NodeInfo& info = nodes_[node->id()];
    return info.wild || info.sym == name_sym;
  }

  /// Fig. 20 startElement lines 1–4 for one record the index leaves to
  /// visit (implementation note 7), whose level already agrees with its
  /// axis: a non-root, non-attribute record whose node test passes and
  /// that is still unmatched for some live member. In output-collection
  /// mode, already-matched succession-chain nodes are still candidates:
  /// every chain element needs its own m verdict, not just the first
  /// matching sibling's.
  bool IsCandidate(const Record& r, Symbol name_sym) const {
    if (r.node->is_root() || r.node->axis() == Axis::kAttribute) return false;
    const NodeInfo& info = nodes_[r.node->id()];
    if ((r.matched & live_) == live_ && !info.on_chain) return false;
    return info.wild || info.sym == name_sym;
  }

  Status HandleStartDocument();
  Status HandleStartElement(Symbol name_sym);
  Status HandleAttribute(Symbol name_sym, std::string_view value);
  Status HandleText(std::string_view text);
  Status HandleEndElement();
  Status HandleEndDocument();

  /// Aggregates all records one level below current_level_ — the
  /// table's suffix — into real match bits for their query parents
  /// (endElement lines 11–29). Per-parent m bits of this round land in
  /// aggregated_m_.
  Status AggregateChildren();

  /// Output-collection bookkeeping at element close.
  void CloseOutputScopes();

  /// The members the suspended child-axis record (node, level) is
  /// recorded as matched for in suspended_matched_.
  MemberMask SuspendedMatched(const QueryNode* node, size_t level) const;

  /// Records the suspended child-axis record (node, level) as matched
  /// for `members`; returns the members it newly recorded.
  MemberMask SuspendMatched(const QueryNode* node, size_t level,
                            MemberMask members);

  /// The members for which the context (node, level) is known to
  /// match: its live record is matched or committed, or it is a
  /// child-axis record suspended during its candidate's expansion and
  /// recorded in suspended_matched_.
  MemberMask Established(const QueryNode* node, size_t level);

  /// Called after (node, level) becomes established for `members`. For
  /// the members whose siblings of `node` are all established at
  /// `level`, commits the parent contexts the aggregation at the
  /// candidate's close will set, and repeats from each of them toward
  /// the root (implementation note 5). Members whose root has
  /// committed drop out.
  void PropagateCommit(const QueryNode* node, size_t level,
                       MemberMask members);

  /// Consumes one event inside an irrelevant subtree: only the level
  /// and the ordinal move, and the skip ends when the subtree's root
  /// closes. False for a document boundary, which takes the full walk.
  /// Kept out of OnSymbolizedEvent: inlined there, it measurably
  /// slowed the full walk on the deep-recursion corpus.
  bool SkipEvent(EventType type);

  /// True while some descendant-axis record is unmatched for a live
  /// member: the only records whose candidates can lie anywhere below
  /// the current level.
  bool HasOpenDescendant() const;

  /// True while an OUT(Q) candidate's string value is being captured.
  bool OutValueOpen() const;

  const Query* query_;  ///< member 0: the tree the walk follows
  /// What the event path reads of one query node, resolved once at
  /// creation.
  struct NodeInfo {
    Symbol sym = kNoSymbol;   ///< the node test's interned symbol
    bool wild = false;        ///< wildcard node test
    bool descendant = false;  ///< a descendant-axis step
    bool on_chain = false;    ///< a chain_ step while collecting outputs
    /// The members for which this node is a leaf with a universal
    /// truth set: decided by its element's start.
    MemberMask universal_leaf = 0;
  };
  std::vector<NodeInfo> nodes_;  ///< indexed by query node id
  /// TRUTH(node) compiled per member: tests_[node id][member].
  std::vector<std::vector<ValueTest>> tests_;
  MemberMask all_ = 0;   ///< every member, removed ones included
  MemberMask live_ = 0;  ///< members not removed

  /// The frontier table, ordered by level (non-decreasing) at every
  /// event boundary. Records are appended only at the deepest open
  /// level: an expanding candidate appends its children at
  /// current_level_ + 1, and a child-axis parent is reinserted at
  /// current_level_ once the closing element's children are gone. Every
  /// deletion keeps the order. So a closing element's children are the
  /// table's suffix, a lookup scans only the records at its level or
  /// deeper, and InsertRecord guards the order. It is the per-level
  /// stack of YFilter's runtime (Diao et al., TODS 2003), flattened.
  std::vector<Record> frontier_;
  /// The ascending indices into frontier_ of its descendant-axis
  /// records (implementation note 7).
  std::vector<size_t> descendants_;
  std::vector<Capture> captures_;
  std::string buffer_;
  size_t current_level_ = 0;
  bool done_ = false;
  MemberMask matched_ = 0;  ///< per-member verdicts at endDocument
  bool failed_ = false;
  size_t ordinal_ = 0;  ///< ordinal of the event being consumed
  std::vector<size_t> decided_at_;  ///< per member
  MemberMask decided_ = 0;  ///< members whose decided_at_ is set
  /// Nonzero while skipping an irrelevant subtree: the level its root
  /// element occupies, which current_level_ returns to when it closes.
  size_t skip_level_ = 0;

  MemoryStats stats_;
  bool trace_enabled_ = false;
  std::vector<std::string> trace_;
  bool literal_mode_ = false;

  // --- output collection (full-fledged evaluation extension) ---

  /// One open scope: either an open candidate of a chain step (holding
  /// outputs pending that step's predicate confirmation) or an open
  /// OUT(Q) candidate whose value is being captured.
  struct OutputScope {
    size_t chain_index;   ///< 1-based position in chain_
    size_t elem_level;    ///< level of the open element
    size_t value_start;   ///< buffer offset (OUT scopes only)
    std::vector<std::string> pending;  ///< outputs awaiting confirmation
  };

  bool collecting_ = false;
  std::vector<const QueryNode*> chain_;  ///< root successors to OUT(Q)
  /// A child-axis record suspended during candidate expansion, with
  /// the members whose matched bit must be set (OR-merged) at
  /// reinsertion: those it was matched for, or committed by the
  /// lookahead.
  struct Suspended {
    const QueryNode* node;
    size_t level;
    MemberMask members;
  };
  /// Linear-scanned, since at most one entry per open ancestor level
  /// can be live.
  std::vector<Suspended> suspended_matched_;
  std::vector<OutputScope> scopes_;      ///< innermost last
  std::vector<std::string> root_pending_;
  std::vector<std::string> outputs_;
  /// Per-endElement-round aggregation verdicts indexed by query node
  /// id, kept only while collecting: -1 not aggregated this round, else
  /// the m bit. A flat array (not a map) so the per-event hot path
  /// allocates nothing.
  std::vector<int8_t> aggregated_m_;

  // Scratch for the per-event handlers: cleared per use, capacity kept
  // across events and documents — the allocation-free hot path.
  std::vector<size_t> scratch_candidates_;
  std::vector<size_t> scratch_delete_;
  std::vector<std::pair<const QueryNode*, MemberMask>> scratch_parents_;
};

}  // namespace xpstream

#endif  // XPSTREAM_STREAM_FRONTIER_FILTER_H_
