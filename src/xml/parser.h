#ifndef XPSTREAM_XML_PARSER_H_
#define XPSTREAM_XML_PARSER_H_

/// \file
/// A from-scratch streaming (push) XML parser, the expat-equivalent
/// substrate the paper's streaming model assumes. Input text may be fed in
/// arbitrary chunks; SAX events are emitted incrementally to an EventSink,
/// so memory use is bounded by the largest single token, never by the
/// document size.
///
/// Parsing is a two-stage pipeline: a StructuralIndex pre-scan sweeps
/// each chunk once and records every `<`, `>`, `&` and newline on a
/// compact tape, then the tokenizer walks the tape — token boundaries,
/// line numbers and the needs-entity-decoding decision all come from
/// tape entries, never from re-inspecting document bytes. Events carry
/// `string_view`s instead of owned strings; the backing storage is
/// chosen per mode (see XmlParserOptions) so the whole-document path
/// emits zero-copy views into the caller's buffer and the streaming path
/// performs one arena reset per document instead of per-event frees.
///
/// Supported XML subset (sufficient for the paper's data model): elements,
/// attributes, character data, self-closing tags, comments, processing
/// instructions and the XML declaration (both skipped), CDATA sections,
/// the five predefined entities and decimal/hex character references.
/// DTDs are not supported.
///
/// Count mode (CountRestInto) serves a consumer that has decided the
/// document before its end: the rest is still tokenized and validated,
/// but its events go to a DocumentStatsCollector instead of the sink.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/arena.h"
#include "xml/event.h"
#include "xml/stats.h"
#include "xml/structural_index.h"
#include "xml/symbol_table.h"

namespace xpstream {

/// Parser configuration. The default (all fields empty/false) is the
/// safe streaming mode: every emitted view is backed by the parser's
/// arena or the symbol table, so chunks may be freed as soon as Feed
/// returns.
struct XmlParserOptions {
  /// Optional name-interning table (see XmlParser constructor docs).
  /// Must outlive the parser; when set, emitted element/attribute names
  /// view the table's stable storage.
  SymbolTable* symbols = nullptr;

  /// Per-document scratch arena for decoded text and streaming-mode
  /// copies. nullptr = the parser owns a private arena. An external
  /// arena lets an Engine reuse one arena (and its blocks) across
  /// documents — the caller resets it after each document's events have
  /// been fully consumed; the parser itself never resets it.
  Arena* arena = nullptr;

  /// The zero-copy promise: when true, the caller guarantees every byte
  /// passed to Feed stays valid and unmoved until this document's
  /// events have been consumed (the whole-document ParseXmlToEvents /
  /// Engine::FilterXml pattern: one Feed over a live buffer). Names and
  /// text then view the input directly — no copies. Tokens that the
  /// parser had to stitch across Feed boundaries are still emitted from
  /// durable storage, so a misuse cannot dangle into parser internals.
  bool stable_input = false;

  /// Test hook: tokenize with the pre-tape byte-at-a-time loop instead
  /// of the structural index. Event output is identical; the fuzz
  /// differential (xml_roundtrip_fuzz_test) runs both tokenizers over
  /// hostile inputs to prove the tape cannot desynchronize.
  bool legacy_tokenizer = false;
};

class XmlParser {
 public:
  /// `sink` must outlive the parser. Events (including the enclosing
  /// startDocument/endDocument pair) are pushed to it.
  ///
  /// With a `symbols` table, element and attribute names are interned
  /// as they are tokenized and emitted events carry their `name_sym` —
  /// one hash per start tag / attribute (end tags reuse the symbol
  /// remembered on the open-element stack, zero hashes). This is where
  /// string hashing leaves the per-event hot path: every downstream
  /// engine dispatches on the symbol. The table must outlive the parser
  /// and interning must stay single-threaded (see symbol_table.h).
  explicit XmlParser(EventSink* sink, SymbolTable* symbols = nullptr);

  /// Full-options constructor; see XmlParserOptions.
  XmlParser(EventSink* sink, const XmlParserOptions& options);

  /// Caps the cumulative bytes this document's entity and character
  /// references may decode to (0 = unlimited, the default). A document
  /// whose references expand past the cap fails with a clean ParseError
  /// instead of burning unbounded decode work — the streaming analogue
  /// of a billion-laughs guard (DTD-defined entities are rejected
  /// outright; this bounds the predefined-entity/charref flood that
  /// remains). Set before the first Feed().
  void SetMaxEntityExpansionBytes(size_t cap) {
    max_entity_expansion_bytes_ = cap;
  }

  /// Caps the open-element depth (0 = unlimited, the default). A start
  /// tag that would open element number cap + 1 fails with
  /// kNotWellFormed "element depth exceeds max_element_depth = <cap>",
  /// checked once its name is validated and interned, in count mode
  /// too. Set before the first Feed().
  void SetMaxElementDepth(size_t cap) { max_element_depth_ = cap; }

  /// Switches to count mode for the rest of this document. The sink may
  /// call it from inside OnEvent, and the caller before the first
  /// Feed(). From the next event on, every event the parser would have
  /// emitted before endDocument goes to `collector` instead of the
  /// sink; Finish() still delivers endDocument to the sink.
  ///
  /// Every check stays, so the parse accepts and rejects exactly what
  /// the full parse does, with the same status: names, attribute
  /// syntax, each end tag against the open stack, CDATA and markup
  /// placement, both caps. Names are still interned. Text and attribute
  /// values without references reach the collector as views of the
  /// parse window, never copied (it reads only their sizes); values
  /// with references are still decoded, which checks them, charges the
  /// expansion cap and gives the decoded size. `collector` must outlive
  /// the parser.
  void CountRestInto(DocumentStatsCollector* collector) {
    counter_ = collector;
  }

  /// Feeds the next chunk of document text. Returns the first error
  /// encountered; after an error the parser is unusable.
  Status Feed(std::string_view chunk);

  /// Declares end of input, emits endDocument, and verifies that the
  /// document was complete and well-formed.
  Status Finish();

 private:
  enum class State {
    kProlog,        // before the root element
    kContent,       // inside the root element
    kEpilog,        // after the root element closed
    kDone,
    kFailed,
  };

  Status Fail(const std::string& msg);
  /// Emits `event` (after startDocument, the first time) to the sink,
  /// or in count mode to the collector.
  Status Emit(const Event& event);
  Status Deliver(const Event& event);

  /// One Feed-sized slice; Feed splits oversized chunks so window
  /// offsets fit the tape encoding.
  Status FeedSlice(std::string_view chunk);

  /// Processes complete tokens in the current window; leaves an
  /// unfinished trailing token for the next Feed call. Tape-walking
  /// tokenizer and the legacy byte-loop test hook.
  Status Drain(bool at_eof);
  Status DrainLegacy(bool at_eof);

  /// Handles one complete markup token tok == "<...>". `may_have_refs`
  /// reports whether the pre-scan saw any '&' inside the token — false
  /// lets attribute values skip entity-decode checks entirely.
  Status HandleMarkup(std::string_view tok, bool may_have_refs);
  Status HandleStartTag(std::string_view body, bool may_have_refs);
  Status HandleEndTag(std::string_view body);
  Status HandleText(std::string_view raw, bool may_have_refs);
  Status HandleCdata(std::string_view content);

  /// Chooses the backing for an emitted name: symbol-table storage when
  /// interning, the input window when the caller pinned it
  /// (stable_input over a direct chunk window), the arena otherwise.
  std::string_view DurableName(std::string_view name, Symbol sym);

  /// Chooses the backing for emitted text that needs no decoding. In
  /// count mode that is the window itself.
  std::string_view DurableText(std::string_view text);

  /// Decodes entity and character references into the arena. Fails on
  /// unknown entities; error statuses carry no line prefix (callers
  /// wrap with Fail).
  Result<std::string_view> DecodeText(std::string_view raw);

  /// One open element: its name (durably backed — table/arena/pinned
  /// input) and its interned symbol (kNoSymbol when the parser has no
  /// table), so the end tag emits without re-hashing.
  struct OpenElement {
    std::string_view name;
    Symbol sym;
  };

  EventSink* sink_;
  SymbolTable* symbols_;   // nullable: no interning
  Arena* arena_;           // owned or external scratch
  Arena owned_arena_;      // backing when options.arena == nullptr
  bool stable_input_;
  bool legacy_;
  State state_ = State::kProlog;

  // The parse window: either the caller's chunk (zero input copies) or
  // buf_ when a token straddled a Feed boundary. window_is_buf_ gates
  // the stable-input borrow — views are only handed out over memory the
  // caller pinned.
  const char* window_ = nullptr;
  size_t window_size_ = 0;
  bool window_is_buf_ = false;

  std::string buf_;        // spill: unconsumed tail across Feed calls
  size_t scanned_ = 0;     // prefix of buf_ already on the tape
  StructuralIndex index_;  // tape over the current window
  size_t tape_pos_ = 0;    // tokenizer's tape cursor
  size_t pos_ = 0;         // consumed prefix of the window
  size_t line_ = 1;        // for error messages
  std::vector<OpenElement> open_;  // open element stack
  bool started_ = false;   // startDocument emitted
  DocumentStatsCollector* counter_ = nullptr;  // count mode when set
  size_t max_element_depth_ = 0;           // 0 = unlimited
  size_t max_entity_expansion_bytes_ = 0;  // 0 = unlimited
  size_t entity_expanded_ = 0;  // reference-decoded bytes this document
};

/// Convenience: parses a full in-memory document into a self-contained
/// EventBuffer, interning names into `symbols` when given. The input is
/// copied once into the buffer's arena and parsed zero-copy over that
/// copy, so the result does not reference `xml` — it stays valid as
/// long as the buffer (and, when interning, `symbols`) lives.
Result<EventBuffer> ParseXmlToEvents(std::string_view xml,
                                     SymbolTable* symbols = nullptr);

}  // namespace xpstream

#endif  // XPSTREAM_XML_PARSER_H_
