#include "xml/parser.h"

#include <cstdlib>
#include <cstring>

#include "common/string_util.h"

namespace xpstream {

namespace {
// Feed() splits caller chunks into slices of at most this size so window
// offsets always fit the tape encoding with room for spill growth.
constexpr size_t kMaxFeedSlice = size_t{64} << 20;
}  // namespace

XmlParser::XmlParser(EventSink* sink, SymbolTable* symbols)
    : XmlParser(sink, XmlParserOptions{symbols, nullptr, false, false}) {}

XmlParser::XmlParser(EventSink* sink, const XmlParserOptions& options)
    : sink_(sink),
      symbols_(options.symbols),
      arena_(options.arena != nullptr ? options.arena : &owned_arena_),
      stable_input_(options.stable_input),
      legacy_(options.legacy_tokenizer) {
  // One up-front reservation instead of a push_back growth chain; deep
  // documents (the paper's recursive worst case) reopen this stack per
  // parse, and parsers are commonly per-document.
  open_.reserve(32);
}

Status XmlParser::Fail(const std::string& msg) {
  state_ = State::kFailed;
  return Status::ParseError(StringPrintf("line %zu: %s", line_, msg.c_str()));
}

Status XmlParser::Emit(const Event& event) {
  if (!started_) {
    started_ = true;
    XPS_RETURN_IF_ERROR(Deliver(Event::StartDocument()));
  }
  return Deliver(event);
}

Status XmlParser::Deliver(const Event& event) {
  // Checked per event: the sink may switch to count mode mid-tag.
  if (counter_ != nullptr) {
    counter_->OnEvent(event);
    return Status::OK();
  }
  return sink_->OnEvent(event);
}

std::string_view XmlParser::DurableName(std::string_view name, Symbol sym) {
  // Interned names view the table's stable storage — zero copies and
  // durable across the whole pipeline lifetime.
  if (symbols_ != nullptr) return symbols_->NameOf(sym);
  if (stable_input_ && !window_is_buf_) return name;
  return arena_->CopyString(name);
}

std::string_view XmlParser::DurableText(std::string_view text) {
  // The collector reads only the size, before the window moves.
  if (counter_ != nullptr) return text;
  if (stable_input_ && !window_is_buf_) return text;
  return arena_->CopyString(text);
}

Status XmlParser::Feed(std::string_view chunk) {
  if (state_ == State::kFailed) {
    return Status::ParseError("parser already failed");
  }
  if (state_ == State::kDone) {
    return Status::ParseError("Feed after Finish");
  }
  if (legacy_) {
    buf_.append(chunk);
    window_ = buf_.data();
    window_size_ = buf_.size();
    window_is_buf_ = true;
    XPS_RETURN_IF_ERROR(DrainLegacy(/*at_eof=*/false));
    if (pos_ > 0) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
    return Status::OK();
  }
  while (chunk.size() > kMaxFeedSlice) {
    XPS_RETURN_IF_ERROR(FeedSlice(chunk.substr(0, kMaxFeedSlice)));
    chunk.remove_prefix(kMaxFeedSlice);
  }
  return FeedSlice(chunk);
}

Status XmlParser::FeedSlice(std::string_view chunk) {
  if (buf_.empty()) {
    // Direct-from-chunk window: the pre-scan and tokenizer run over the
    // caller's bytes, so a whole document fed at once is never copied
    // into the parser (only an unfinished trailing token spills below).
    index_.Clear();
    tape_pos_ = 0;
    pos_ = 0;
    scanned_ = 0;
    window_ = chunk.data();
    window_size_ = chunk.size();
    window_is_buf_ = false;
    index_.Scan(chunk.data(), 0, chunk.size());
    XPS_RETURN_IF_ERROR(Drain(/*at_eof=*/false));
    if (pos_ < window_size_) {
      buf_.assign(window_ + pos_, window_size_ - pos_);
      index_.Rebase(pos_, tape_pos_);
      scanned_ = buf_.size();
    } else {
      index_.Clear();
      scanned_ = 0;
    }
    tape_pos_ = 0;
    pos_ = 0;
    window_ = nullptr;
    window_size_ = 0;
    window_is_buf_ = true;
    return Status::OK();
  }
  if (buf_.size() + chunk.size() > StructuralIndex::kMaxWindowBytes) {
    return Fail("token exceeds the maximum parse window (512 MiB)");
  }
  buf_.append(chunk);
  index_.Scan(buf_.data(), scanned_, buf_.size());
  scanned_ = buf_.size();
  window_ = buf_.data();
  window_size_ = buf_.size();
  window_is_buf_ = true;
  XPS_RETURN_IF_ERROR(Drain(/*at_eof=*/false));
  // Compact the consumed prefix to keep memory proportional to one
  // token; the tape shifts with it.
  if (pos_ > 0) {
    buf_.erase(0, pos_);
    index_.Rebase(pos_, tape_pos_);
    scanned_ = buf_.size();
    tape_pos_ = 0;
    pos_ = 0;
  }
  return Status::OK();
}

Status XmlParser::Finish() {
  if (state_ == State::kFailed) {
    return Status::ParseError("parser already failed");
  }
  window_ = buf_.data();
  window_size_ = buf_.size();
  window_is_buf_ = true;
  if (legacy_) {
    XPS_RETURN_IF_ERROR(DrainLegacy(/*at_eof=*/true));
  } else {
    XPS_RETURN_IF_ERROR(Drain(/*at_eof=*/true));
  }
  if (pos_ != window_size_) {
    return Fail("trailing incomplete markup at end of input");
  }
  if (!open_.empty()) {
    return Fail("unclosed element: " + std::string(open_.back().name));
  }
  if (state_ != State::kEpilog) {
    return Fail("document has no root element");
  }
  state_ = State::kDone;
  // The root's start tag emitted startDocument. endDocument goes to the
  // sink in count mode too, so the sink still sees the document end.
  return sink_->OnEvent(Event::EndDocument());
}

Status XmlParser::Drain(bool at_eof) {
  const char* d = window_;
  const size_t n = window_size_;
  const auto& tape = index_.tape();
  const size_t tn = tape.size();
  while (pos_ < n) {
    if (d[pos_] == '<') {
      // The tape cursor sits on this '<' entry (every consumed entry is
      // strictly before pos_); walk past it toward the closing '>'.
      size_t cur = tape_pos_ + 1;
      size_t nl = 0;
      bool amp = false;
      const std::string_view rest(d + pos_, n - pos_);
      enum { kGeneric, kComment, kCdata } cls = kGeneric;
      if (rest.size() >= 4 && rest.compare(0, 4, "<!--") == 0) {
        cls = kComment;
      } else if (rest.size() >= 9 && rest.compare(0, 9, "<![CDATA[") == 0) {
        cls = kCdata;
      }
      // Comments and CDATA may contain '>' internally; their real end
      // is the first '>' preceded by "--" / "]]" (the prefix guarantees
      // those reads stay inside the token).
      size_t gt = 0;
      bool closed = false;
      for (; cur < tn; ++cur) {
        const StructuralKind k = StructuralIndex::KindOf(tape[cur]);
        if (k == kStructNl) {
          ++nl;
          continue;
        }
        if (k == kStructAmp) {
          amp = true;
          continue;
        }
        if (k != kStructGt) continue;
        const size_t off = StructuralIndex::OffsetOf(tape[cur]);
        if (cls == kComment && (d[off - 1] != '-' || d[off - 2] != '-')) {
          continue;
        }
        if (cls == kCdata && (d[off - 1] != ']' || d[off - 2] != ']')) {
          continue;
        }
        gt = off;
        closed = true;
        break;
      }
      if (!closed) {
        if (!at_eof) break;  // wait for more input
        if (cls == kComment) return Fail("unterminated comment");
        if (cls == kCdata) return Fail("unterminated CDATA section");
        return Fail("unterminated markup");
      }
      const size_t end = gt + 1 - pos_;  // token length incl. '>'
      if (cls == kComment) {
        line_ += nl;
        pos_ += end;
        tape_pos_ = cur + 1;
        continue;
      }
      if (cls == kCdata) {
        if (state_ != State::kContent) {
          return Fail("CDATA outside the root element");
        }
        XPS_RETURN_IF_ERROR(HandleCdata(rest.substr(9, (end - 3) - 9)));
        line_ += nl;
        pos_ += end;
        tape_pos_ = cur + 1;
        continue;
      }
      line_ += nl;
      pos_ += end;
      tape_pos_ = cur + 1;
      XPS_RETURN_IF_ERROR(HandleMarkup(rest.substr(0, end), amp));
    } else {
      // Text run: everything up to the next '<' (or end of input).
      size_t cur = tape_pos_;
      size_t nl = 0;
      bool amp = false;
      size_t next = n;
      bool found = false;
      for (; cur < tn; ++cur) {
        const StructuralKind k = StructuralIndex::KindOf(tape[cur]);
        if (k == kStructLt) {
          next = StructuralIndex::OffsetOf(tape[cur]);
          found = true;
          break;
        }
        nl += (k == kStructNl) ? 1u : 0u;
        amp |= (k == kStructAmp);
      }
      if (!found && !at_eof) break;  // wait for more input
      const std::string_view raw(d + pos_, next - pos_);
      line_ += nl;
      pos_ = next;
      tape_pos_ = cur;
      XPS_RETURN_IF_ERROR(HandleText(raw, amp));
    }
  }
  return Status::OK();
}

Status XmlParser::DrainLegacy(bool at_eof) {
  // The pre-tape tokenizer, kept verbatim as the fuzz differential's
  // oracle: byte-at-a-time scanning with find(), per-char line counts.
  // It calls the same Handle* methods, so any divergence from Drain()
  // is a tokenization bug by construction.
  const std::string_view window(window_, window_size_);
  while (pos_ < window.size()) {
    if (window[pos_] == '<') {
      std::string_view rest = window.substr(pos_);
      size_t end;  // index (relative to pos_) one past the closing '>'
      if (StartsWith(rest, "<!--")) {
        size_t close = rest.find("-->");
        if (close == std::string_view::npos) {
          if (at_eof) return Fail("unterminated comment");
          break;
        }
        end = close + 3;
        for (size_t i = 0; i < end; ++i) line_ += (rest[i] == '\n');
        pos_ += end;
        continue;
      }
      if (StartsWith(rest, "<![CDATA[")) {
        size_t close = rest.find("]]>");
        if (close == std::string_view::npos) {
          if (at_eof) return Fail("unterminated CDATA section");
          break;
        }
        if (state_ != State::kContent) {
          return Fail("CDATA outside the root element");
        }
        XPS_RETURN_IF_ERROR(HandleCdata(rest.substr(9, close - 9)));
        end = close + 3;
        for (size_t i = 0; i < end; ++i) line_ += (rest[i] == '\n');
        pos_ += end;
        continue;
      }
      size_t close = rest.find('>');
      if (close == std::string_view::npos) {
        if (at_eof) return Fail("unterminated markup");
        break;
      }
      end = close + 1;
      std::string_view tok = rest.substr(0, end);
      for (char c : tok) line_ += (c == '\n');
      pos_ += end;
      XPS_RETURN_IF_ERROR(HandleMarkup(tok, /*may_have_refs=*/true));
    } else {
      size_t next = window.find('<', pos_);
      if (next == std::string_view::npos) {
        if (!at_eof) break;  // wait for more input
        next = window.size();
      }
      std::string_view raw = window.substr(pos_, next - pos_);
      for (char c : raw) line_ += (c == '\n');
      pos_ = next;
      XPS_RETURN_IF_ERROR(HandleText(raw, /*may_have_refs=*/true));
    }
  }
  return Status::OK();
}

Status XmlParser::HandleMarkup(std::string_view tok, bool may_have_refs) {
  // tok is "<...>" with the angle brackets included.
  std::string_view body = tok.substr(1, tok.size() - 2);
  if (body.empty()) return Fail("empty tag");
  if (body[0] == '?') {
    // XML declaration or processing instruction: skipped.
    if (!EndsWith(body, "?")) return Fail("malformed processing instruction");
    return Status::OK();
  }
  if (body[0] == '!') {
    return Fail("DTD declarations are not supported");
  }
  if (body[0] == '/') {
    return HandleEndTag(body.substr(1));
  }
  return HandleStartTag(body, may_have_refs);
}

Status XmlParser::HandleStartTag(std::string_view body, bool may_have_refs) {
  if (state_ == State::kEpilog) {
    return Fail("content after the root element");
  }
  bool self_closing = false;
  if (EndsWith(body, "/")) {
    self_closing = true;
    body.remove_suffix(1);
  }
  // Element name.
  size_t i = 0;
  while (i < body.size() && !IsXmlWhitespace(body[i])) ++i;
  const std::string_view name = body.substr(0, i);
  if (!IsValidXmlName(name)) {
    return Fail("invalid element name: '" + std::string(name) + "'");
  }
  // Intern once per start tag; the matching end tag reuses the symbol
  // from the open-element stack.
  const Symbol sym = symbols_ != nullptr ? symbols_->Intern(name) : kNoSymbol;
  if (max_element_depth_ != 0 && open_.size() >= max_element_depth_) {
    state_ = State::kFailed;
    return Status::NotWellFormed("element depth exceeds max_element_depth = " +
                                 std::to_string(max_element_depth_));
  }
  const std::string_view out_name = DurableName(name, sym);
  XPS_RETURN_IF_ERROR(Emit(Event::StartElement(out_name, sym)));
  state_ = State::kContent;

  // Attributes: name = "value" | name = 'value'.
  while (i < body.size()) {
    while (i < body.size() && IsXmlWhitespace(body[i])) ++i;
    if (i == body.size()) break;
    size_t name_start = i;
    while (i < body.size() && IsNameChar(body[i])) ++i;
    const std::string_view attr_name = body.substr(name_start, i - name_start);
    if (!IsValidXmlName(attr_name)) {
      return Fail("invalid attribute name in <" + std::string(name) + ">");
    }
    while (i < body.size() && IsXmlWhitespace(body[i])) ++i;
    if (i == body.size() || body[i] != '=') {
      return Fail("attribute '" + std::string(attr_name) + "' missing '='");
    }
    ++i;
    while (i < body.size() && IsXmlWhitespace(body[i])) ++i;
    if (i == body.size() || (body[i] != '"' && body[i] != '\'')) {
      return Fail("attribute '" + std::string(attr_name) +
                  "' missing quoted value");
    }
    char quote = body[i++];
    size_t val_start = i;
    while (i < body.size() && body[i] != quote) ++i;
    if (i == body.size()) {
      return Fail("unterminated attribute value for '" +
                  std::string(attr_name) + "'");
    }
    const std::string_view raw_value = body.substr(val_start, i - val_start);
    std::string_view value;
    if (may_have_refs && std::memchr(raw_value.data(), '&',
                                     raw_value.size()) != nullptr) {
      auto decoded = DecodeText(raw_value);
      if (!decoded.ok()) return Fail(decoded.status().message());
      value = decoded.value();
    } else {
      value = DurableText(raw_value);
    }
    ++i;  // closing quote
    const Symbol attr_sym =
        symbols_ != nullptr ? symbols_->Intern(attr_name) : kNoSymbol;
    XPS_RETURN_IF_ERROR(Emit(
        Event::Attribute(DurableName(attr_name, attr_sym), value, attr_sym)));
  }

  if (self_closing) {
    XPS_RETURN_IF_ERROR(Emit(Event::EndElement(out_name, sym)));
    if (open_.empty()) state_ = State::kEpilog;
  } else {
    open_.push_back(OpenElement{out_name, sym});
  }
  return Status::OK();
}

Status XmlParser::HandleEndTag(std::string_view body) {
  const std::string_view name = TrimWhitespace(body);
  if (open_.empty()) {
    return Fail("closing tag </" + std::string(name) +
                "> with no open element");
  }
  if (open_.back().name != name) {
    return Fail("mismatched closing tag: expected </" +
                std::string(open_.back().name) + "> got </" +
                std::string(name) + ">");
  }
  const Symbol sym = open_.back().sym;
  // The stack name is durably backed (table/arena/pinned input) and
  // byte-equal to the end tag's spelling, so the end event reuses it.
  const std::string_view out_name = open_.back().name;
  open_.pop_back();
  XPS_RETURN_IF_ERROR(Emit(Event::EndElement(out_name, sym)));
  if (open_.empty()) state_ = State::kEpilog;
  return Status::OK();
}

Status XmlParser::HandleText(std::string_view raw, bool may_have_refs) {
  if (open_.empty()) {
    // Whitespace is allowed (and ignored) outside the root element.
    if (TrimWhitespace(raw).empty()) return Status::OK();
    return Fail("character data outside the root element");
  }
  if (raw.empty()) return Status::OK();
  if (may_have_refs &&
      std::memchr(raw.data(), '&', raw.size()) != nullptr) {
    auto decoded = DecodeText(raw);
    if (!decoded.ok()) return Fail(decoded.status().message());
    return Emit(Event::Text(decoded.value()));
  }
  return Emit(Event::Text(DurableText(raw)));
}

Status XmlParser::HandleCdata(std::string_view content) {
  // CDATA content is emitted verbatim: no entity decoding, no charge
  // against the expansion budget.
  return Emit(Event::Text(DurableText(content)));
}

Result<std::string_view> XmlParser::DecodeText(std::string_view raw) {
  // References always decode to no more bytes than their spelling
  // (&#65536; is 8 bytes for a 4-byte code point, &lt; is 4 for 1), so
  // raw.size() bounds the output: reserve it, decode in place, trim.
  char* const out = arena_->AllocUninitialized(raw.size());
  char* w = out;
  for (size_t i = 0; i < raw.size();) {
    if (raw[i] != '&') {
      *w++ = raw[i++];
      continue;
    }
    // Entity-flood guard: every reference charges its decoded output
    // against a per-document budget, so a document that is nothing but
    // references cannot demand unbounded decode work.
    if (max_entity_expansion_bytes_ != 0 &&
        entity_expanded_ >= max_entity_expansion_bytes_) {
      return Status::ParseError(
          "entity expansion exceeds max_entity_expansion_bytes = " +
          std::to_string(max_entity_expansion_bytes_));
    }
    size_t semi = raw.find(';', i);
    if (semi == std::string_view::npos) {
      return Status::ParseError("unterminated entity reference");
    }
    std::string_view ent = raw.substr(i + 1, semi - i - 1);
    char* const decoded_start = w;
    if (ent == "amp") {
      *w++ = '&';
    } else if (ent == "lt") {
      *w++ = '<';
    } else if (ent == "gt") {
      *w++ = '>';
    } else if (ent == "quot") {
      *w++ = '"';
    } else if (ent == "apos") {
      *w++ = '\'';
    } else if (!ent.empty() && ent[0] == '#') {
      long code;
      std::string digits(ent.substr(1));
      if (!digits.empty() && (digits[0] == 'x' || digits[0] == 'X')) {
        code = std::strtol(digits.c_str() + 1, nullptr, 16);
      } else {
        code = std::strtol(digits.c_str(), nullptr, 10);
      }
      if (code <= 0 || code > 0x10FFFF) {
        return Status::ParseError("invalid character reference &" +
                                  std::string(ent) + ";");
      }
      // UTF-8 encode.
      unsigned long cp = static_cast<unsigned long>(code);
      if (cp < 0x80) {
        *w++ = static_cast<char>(cp);
      } else if (cp < 0x800) {
        *w++ = static_cast<char>(0xC0 | (cp >> 6));
        *w++ = static_cast<char>(0x80 | (cp & 0x3F));
      } else if (cp < 0x10000) {
        *w++ = static_cast<char>(0xE0 | (cp >> 12));
        *w++ = static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        *w++ = static_cast<char>(0x80 | (cp & 0x3F));
      } else {
        *w++ = static_cast<char>(0xF0 | (cp >> 18));
        *w++ = static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
        *w++ = static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        *w++ = static_cast<char>(0x80 | (cp & 0x3F));
      }
    } else {
      return Status::ParseError("unknown entity &" + std::string(ent) + ";");
    }
    entity_expanded_ += static_cast<size_t>(w - decoded_start);
    i = semi + 1;
  }
  arena_->TrimLast(raw.size() - static_cast<size_t>(w - out));
  return std::string_view(out, static_cast<size_t>(w - out));
}

Result<EventBuffer> ParseXmlToEvents(std::string_view xml,
                                     SymbolTable* symbols) {
  EventBuffer buffer;
  // One copy of the input into the buffer's arena makes the result
  // self-contained: the zero-copy parse views that copy (and, when
  // interning, the symbol table), never the caller's `xml`.
  const std::string_view stable = buffer.arena().CopyString(xml);
  CollectingSink sink(&buffer.events());
  XmlParserOptions options;
  options.symbols = symbols;
  options.arena = &buffer.arena();
  options.stable_input = true;
  XmlParser parser(&sink, options);
  XPS_RETURN_IF_ERROR(parser.Feed(stable));
  XPS_RETURN_IF_ERROR(parser.Finish());
  return buffer;
}

}  // namespace xpstream
