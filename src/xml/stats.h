#ifndef XPSTREAM_XML_STATS_H_
#define XPSTREAM_XML_STATS_H_

/// \file
/// Query-independent document statistics used throughout the experiments
/// and by the planner: size, depth (paper §4.3), element/text counts and
/// maximum text length. Two producers exist — ComputeDocumentStats over a
/// built tree, and the streaming DocumentStatsCollector the Engine facade
/// runs over every document it filters. When the facade short-circuits a
/// byte document, the parser feeds the collector the counted tail itself
/// (XmlParser::CountRestInto). A DocumentProfile folds the
/// per-document readings into the running maxima the cost model
/// (include/xpstream/planner.h, docs/cost_model.md) feeds into the
/// paper's §4 bound formulas. Query-relative statistics (recursion depth,
/// path recursion depth, text width, Defs. 8.3/8.4) live in
/// analysis/matching.h because they need the matching machinery.

#include <cstddef>
#include <string>
#include <vector>

#include "xml/event.h"
#include "xml/node.h"

namespace xpstream {

/// Shape measurements of one document.
struct DocumentStats {
  size_t total_nodes = 0;     ///< Elements + attributes + text nodes.
  size_t element_count = 0;   ///< Element nodes.
  size_t attribute_count = 0; ///< Attribute nodes.
  size_t text_count = 0;      ///< Text nodes.
  size_t depth = 0;           ///< Longest root-to-leaf element path.
  size_t max_fanout = 0;      ///< Max element children of one element.
  size_t max_text_length = 0; ///< Longest single text node.
  size_t total_text_bytes = 0; ///< Sum of text and attribute-value bytes.
  size_t event_count = 0;     ///< SAX events incl. document envelope.
  /// Approximate in-memory size of the document's event stream: text
  /// payload plus element/attribute name bytes (names counted at every
  /// occurrence — what a buffering engine that has not interned them
  /// pays, i.e. the naive engine's cost model input).
  size_t approx_bytes = 0;

  /// One-line key=value rendering for logs and benches.
  std::string ToString() const;
};

/// Walks a built tree and measures it.
DocumentStats ComputeDocumentStats(const XmlDocument& doc);

/// Streaming equivalent of ComputeDocumentStats: feed it every SAX
/// event of one document (startDocument through endDocument) and read
/// stats() afterwards. O(depth) state — safe to run inline with
/// filtering, which is exactly what the Engine facade does to keep its
/// DocumentProfile current; a parser in count mode feeds it the events
/// it no longer emits. It reads only the sizes of names and texts, so
/// it never retains a view. Robust to malformed streams (never fails;
/// garbage in, best-effort numbers out — the parser's job is rejection).
class DocumentStatsCollector {
 public:
  /// Accounts one SAX event.
  void OnEvent(const Event& event);

  /// The measurements accumulated since the last Reset().
  const DocumentStats& stats() const { return stats_; }

  /// Clears all state for the next document.
  void Reset();

 private:
  DocumentStats stats_;
  std::vector<size_t> fanout_stack_;  // element children per open element
  size_t depth_ = 0;                  // currently open elements
};

/// The document-side input of the planner's cost model: running maxima
/// over every document observed so far, or a caller-asserted workload
/// profile when nothing has streamed yet. The defaults describe a small
/// realistic document; deployments expecting hostile input should
/// assert larger maxima (EngineOptions::assumed_profile) so admission
/// control prices subscriptions against the worst document they may
/// legally receive (the caps in ServerOptions::engine bound that worst
/// case).
struct DocumentProfile {
  size_t documents = 0;          ///< Documents folded in; 0 = assumed only.
  size_t max_depth = 16;         ///< Deepest element nesting seen.
  size_t max_fanout = 64;        ///< Widest element fanout seen.
  size_t max_text_bytes = 256;   ///< Longest single text node seen.
  size_t max_document_bytes = 1u << 16;  ///< Largest event-stream bytes.
  size_t max_events = 1u << 12;  ///< Largest SAX event count.
  size_t distinct_names = 16;    ///< Element/attribute name alphabet size.

  /// Folds one document's measurements into the maxima.
  /// `alphabet_size` is the pipeline's distinct-name count (e.g.
  /// SymbolTable::size()) at the document boundary.
  void Observe(const DocumentStats& stats, size_t alphabet_size);

  /// Convenience: measures `events` with a DocumentStatsCollector and
  /// folds the result in, deriving the alphabet from the events' names.
  void ObserveEvents(const EventStream& events);

  /// One-line key=value rendering for logs and STATS.
  std::string ToString() const;
};

}  // namespace xpstream

#endif  // XPSTREAM_XML_STATS_H_
