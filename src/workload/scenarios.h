#ifndef XPSTREAM_WORKLOAD_SCENARIOS_H_
#define XPSTREAM_WORKLOAD_SCENARIOS_H_

/// \file
/// Realistic workload scenarios for the examples and the dissemination
/// benchmark (E9): a bibliography corpus in the style of the XQuery Use
/// Cases the paper cites, and a nested message feed exercising document
/// recursion (the paper's motivating hard case).

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "xml/event.h"
#include "xml/node.h"

namespace xpstream {

/// A corpus of event-stream documents together with the trees that back
/// their views (events are non-owning since the zero-copy parse work;
/// see the lifetime contract in xml/event.h). Iterates like a
/// std::vector<EventStream>.
struct EventCorpus {
  std::vector<EventStream> documents;
  std::vector<std::unique_ptr<XmlDocument>> storage;

  /// Appends `doc`'s event stream, taking ownership of the tree.
  void Add(std::unique_ptr<XmlDocument> doc) {
    storage.push_back(std::move(doc));
    documents.push_back(storage.back()->ToEvents());
  }

  size_t size() const { return documents.size(); }
  bool empty() const { return documents.empty(); }
  const EventStream& operator[](size_t i) const { return documents[i]; }
  std::vector<EventStream>::const_iterator begin() const {
    return documents.begin();
  }
  std::vector<EventStream>::const_iterator end() const {
    return documents.end();
  }
};

/// One random ⟨book⟩ document with title / author+ / year / price and a
/// publisher attribute.
std::unique_ptr<XmlDocument> GenerateBookDocument(Random* rng);

/// A corpus of `n` book documents.
std::vector<std::unique_ptr<XmlDocument>> GenerateBibliographyCorpus(
    size_t n, uint64_t seed);

/// Subscription-style queries over the corpus (all in the fragment the
/// FrontierFilter supports).
std::vector<std::string> BibliographySubscriptions();

/// A message feed document whose envelopes nest to `recursion` levels —
/// each ⟨msg⟩ may carry a forwarded ⟨msg⟩ — with headers and bodies.
std::unique_ptr<XmlDocument> GenerateMessageFeed(size_t messages,
                                                 size_t recursion,
                                                 Random* rng);

/// Queries over the message feed exercising descendant axes over
/// recursive structure.
std::vector<std::string> MessageFeedSubscriptions();

/// The dissemination workload: `num_queries` random linear-path
/// subscriptions and `num_docs` random documents of depth ≤ 7, both
/// over the same 4-name pool (fixed seeds). bench_dissemination's
/// 1024-query rows measure it, and tripbench's dissem-1k workload
/// follows its shape.
struct DisseminationSweepWorkload {
  std::vector<std::string> queries;
  std::vector<EventStream> documents;
  /// Owns the trees the documents' event views point into (see the
  /// lifetime contract in xml/event.h) — keep alive as long as
  /// `documents` is read.
  std::vector<std::unique_ptr<XmlDocument>> storage;
};
DisseminationSweepWorkload MakeDisseminationSweep(size_t num_queries,
                                                  size_t num_docs);

// --- subscription churn (live Subscribe/Unsubscribe traffic) --------

/// A deterministic interleaving of subscription lifecycle operations and
/// document arrivals, for the churn test (api_churn_test) and bench
/// (E11). The schedule opens by registering `duplication` subscribers
/// for each of `num_queries` distinct queries (the dedup ratio), then
/// alternates bursts of Subscribe/Unsubscribe with document deliveries,
/// with one Compact planted mid-stream. Consumers replay ops in order;
/// the subscriber ids embedded in the ops are unique across the whole
/// schedule, so replays never collide.
struct ChurnWorkload {
  enum class OpKind { kSubscribe, kUnsubscribe, kDocument, kCompact };
  struct Op {
    OpKind kind;
    /// Query index (kSubscribe) or document index (kDocument).
    size_t index = 0;
    /// Subscription id (kSubscribe / kUnsubscribe).
    std::string id;
  };
  std::vector<std::string> queries;
  std::vector<EventStream> documents;
  std::vector<Op> ops;
  /// Owns the trees the documents' event views point into.
  std::vector<std::unique_ptr<XmlDocument>> storage;
};
ChurnWorkload MakeChurnWorkload(size_t num_queries, size_t duplication,
                                size_t num_docs, uint64_t seed);

// --- adversarial corpora (§4 memory-bound stress) -------------------
//
// The paper's lower bounds are driven by two document parameters:
// recursion depth r (Thm 4.5: Ω(r) bits for recursive documents) and
// the frontier/candidate width at one level. These deterministic
// generators push each axis far beyond the realistic scenarios above,
// so benches and tests can watch the engines pay the bound — and no
// more.

/// A deep-recursion document: ⟨m⟩ envelopes nested `depth` levels, each
/// level carrying an ⟨h⟩x⟨/h⟩ header child, with one ⟨body⟩payload⟨/body⟩
/// at the innermost level. Every prefix of the nest is a live recursive
/// candidate for //m-style queries, so r = `depth`.
EventStream GenerateDeepRecursionDocument(size_t depth);

/// Subscriptions over the deep-recursion corpus (frontier fragment):
/// descendant steps over the recursive ⟨m⟩ nest.
std::vector<std::string> DeepRecursionSubscriptions();

/// A wide-fanout document: a flat ⟨root⟩ with `fanout` ⟨item⟩ children,
/// each holding ⟨name⟩/⟨val⟩ leaves (val cycles 0..9). Stresses
/// per-level candidate pressure and string-value capture churn.
EventStream GenerateWideFanoutDocument(size_t fanout);

/// Subscriptions over the wide-fanout corpus (frontier fragment),
/// including value predicates so leaf captures stay on the hot path.
std::vector<std::string> WideFanoutSubscriptions();

/// The E5 query family //a/*^k — the classic DFA worst case: the
/// automaton must remember which of the last k ancestors were named
/// 'a', forcing ~2^k states. Shared by bench_automata_blowup (E5) and
/// the planner test/bench (the cost model must price exactly this
/// family out of lazy_dfa).
std::string BlowupQuery(size_t k);

/// The E5 adversarial document: a complete binary tree of element
/// depth `depth` rooted at an ⟨a⟩, left children ⟨a⟩, right children
/// ⟨x⟩ — every ancestor-name pattern of length ≤ depth occurs, driving
/// a lazy DFA toward its eager state count.
EventStream GenerateBlowupDocument(size_t depth);

}  // namespace xpstream

#endif  // XPSTREAM_WORKLOAD_SCENARIOS_H_
