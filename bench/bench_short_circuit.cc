// E12: short-circuit dissemination. A corpus where every subscription
// decides within a short document prologue and a long irrelevant tail
// follows — the best case for EngineOptions::short_circuit, which stops
// matching once all verdicts are provably decided and consumes the rest
// of the document through a well-formedness-only path.
//
// The win is a pure work cut (fewer engine events), not parallelism, so
// it is measurable on a single core. The holdout row adds one
// subscription that never matches, so the whole-document cut cannot
// fire and only the per-slot cut (committed slots leave the scan)
// remains. Verdict parity between the off/on runs is asserted on every
// pass.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "xpstream/xpstream.h"

namespace xpstream {
namespace {

constexpr size_t kSubscriptions = 64;
constexpr size_t kTailItems = 4000;
constexpr int kPasses = 5;

/// Marker-element names with process-lifetime storage: the hand-built
/// event streams view them (see the lifetime contract in xml/event.h).
const std::string& MarkerName(size_t i) {
  static const auto* names = [] {
    auto* v = new std::vector<std::string>;
    for (size_t k = 0; k < kSubscriptions; ++k) {
      v->push_back("h" + std::to_string(k));
    }
    return v;
  }();
  return (*names)[i];
}

/// One document: 64 ⟨hK⟩marker⟨/hK⟩ hits up front, then a long tail of
/// filler items no subscription cares about.
EventStream MakeEarlyDecidingDocument() {
  EventStream events;
  events.reserve(3 * kSubscriptions + 5 * kTailItems + 4);
  events.push_back(Event::StartDocument());
  events.push_back(Event::StartElement("feed"));
  for (size_t i = 0; i < kSubscriptions; ++i) {
    const std::string& name = MarkerName(i);
    events.push_back(Event::StartElement(name));
    events.push_back(Event::Text("marker"));
    events.push_back(Event::EndElement(name));
  }
  for (size_t i = 0; i < kTailItems; ++i) {
    events.push_back(Event::StartElement("x"));
    events.push_back(Event::StartElement("y"));
    events.push_back(Event::Text("filler filler filler"));
    events.push_back(Event::EndElement("y"));
    events.push_back(Event::EndElement("x"));
  }
  events.push_back(Event::EndElement("feed"));
  events.push_back(Event::EndDocument());
  return events;
}

struct Row {
  double us_per_doc = 0;
  size_t matches = 0;
  size_t sc_docs = 0;
  bool ok = false;
};

Row Measure(const std::string& engine_name, bool holdout, bool short_circuit,
            const std::vector<EventStream>& docs) {
  Row row;
  EngineOptions options;
  options.engine = engine_name;
  options.keep_history = false;
  options.short_circuit = short_circuit;
  auto engine = Engine::Create(options);
  if (!engine.ok()) return row;
  for (size_t i = 0; i < kSubscriptions; ++i) {
    if (!(*engine)->Subscribe("S" + std::to_string(i),
                              "//h" + std::to_string(i)).ok()) {
      return row;
    }
  }
  if (holdout && !(*engine)->Subscribe("miss", "//zzz").ok()) return row;

  auto pass = [&]() -> bool {
    row.matches = 0;
    for (const EventStream& events : docs) {
      auto verdicts = (*engine)->FilterEvents(events);
      if (!verdicts.ok()) return false;
      for (bool v : *verdicts) row.matches += v;
    }
    return true;
  };
  if (!pass()) return row;  // warmup
  auto t0 = std::chrono::steady_clock::now();
  for (int p = 0; p < kPasses; ++p) {
    if (!pass()) return row;
  }
  auto t1 = std::chrono::steady_clock::now();
  row.us_per_doc =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
              .count()) /
      (kPasses * static_cast<double>(docs.size()));
  row.sc_docs = (*engine)->documents_short_circuited();
  row.ok = true;
  return row;
}

int RunE12() {
  std::printf(
      "# E12: short-circuit dissemination (%zu early-deciding "
      "subscriptions, %zu-event docs)\n",
      kSubscriptions, 3 * kSubscriptions + 5 * kTailItems + 4);
  std::printf("%-17s %-5s %-12s %-10s %-10s %-8s\n", "engine", "sc",
              "us/doc", "speedup", "matches", "sc_docs");

  const std::vector<EventStream> docs(8, MakeEarlyDecidingDocument());
  // The holdout's full-scan row walks every tail: fewer documents keep
  // the bench short.
  const std::vector<EventStream> holdout_docs(2, docs.front());

  struct Config {
    const char* engine;
    bool holdout;
  };
  const Config configs[] = {{"nfa", false},
                            {"frontier", false},
                            {"nfa_index", false},
                            {"frontier", true}};
  for (const Config& config : configs) {
    const std::vector<EventStream>& corpus =
        config.holdout ? holdout_docs : docs;
    Row off = Measure(config.engine, config.holdout, false, corpus);
    Row on = Measure(config.engine, config.holdout, true, corpus);
    if (!off.ok || !on.ok || off.matches != on.matches) {
      std::fprintf(stderr, "E12: %s failed or verdicts diverged\n",
                   config.engine);
      return 1;
    }
    const std::string label =
        std::string(config.engine) + (config.holdout ? "+holdout" : "");
    for (const Row* row : {&off, &on}) {
      std::printf("%-17s %-5s %-12.1f %-10.2f %-10zu %-8zu\n",
                  label.c_str(), row == &off ? "off" : "on",
                  row->us_per_doc,
                  row->us_per_doc > 0 ? off.us_per_doc / row->us_per_doc : 0.0,
                  row->matches / corpus.size(), row->sc_docs);
    }
  }
  std::printf(
      "\nexpectation: with short_circuit on, every document stops after\n"
      "the 64-hit prologue and skips the filler tail — a pure work cut\n"
      "(single-core valid) whose factor tracks the tail/prologue ratio;\n"
      "verdicts and decided positions are identical to the full scan.\n"
      "With the holdout, no document stops (sc_docs 0), but the 64\n"
      "committed slots leave the scan and only the holdout walks on.\n");
  return 0;
}

}  // namespace
}  // namespace xpstream

int main() { return xpstream::RunE12(); }
