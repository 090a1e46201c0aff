// Experiment E10 (YFilter [14] reproduction): prefix sharing in a
// multi-query NFA index, driven through the public Engine facade — the
// "nfa_index" engine (one shared automaton scan per document) against
// the "nfa" engine (a bank of per-query automata sharing the scan).
//
// Series printed, for growing subscription counts over a fixed name
// pool:
//   shared NFA states vs the sum of per-query automaton sizes (the
//   sharing ratio YFilter reports);
//   one-scan index throughput vs running one NfaFilter per query.

#include <chrono>
#include <cstdio>

#include "common/random.h"
#include "workload/doc_generator.h"
#include "workload/query_generator.h"
#include "workload/scenarios.h"
#include "xpstream/xpstream.h"

namespace xpstream {
namespace {

int RunE10() {
  std::printf("# E10: YFilter-style prefix sharing (shared NFA index)\n");
  std::printf("%-8s %-14s %-14s %-10s %-14s %-14s\n", "queries",
              "shared_states", "sum_states", "ratio", "index_us/doc",
              "separate_us/doc");

  Random doc_rng(42);
  DocGenOptions dopts;
  dopts.max_depth = 7;
  dopts.name_pool = 4;
  dopts.names = {"s0", "s1", "s2", "s3"};
  EventCorpus docs;
  for (int i = 0; i < 20; ++i) {
    docs.Add(GenerateRandomDocument(&doc_rng, dopts));
  }

  for (size_t n : {16u, 64u, 256u, 1024u}) {
    Random rng(7);
    EngineOptions index_options, bank_options;
    index_options.engine = "nfa_index";
    bank_options.engine = "nfa";
    index_options.keep_history = bank_options.keep_history = false;
    auto index_engine = Engine::Create(index_options);
    auto bank_engine = Engine::Create(bank_options);
    if (!index_engine.ok() || !bank_engine.ok()) return 1;
    size_t sum_states = 0;
    for (size_t i = 0; i < n; ++i) {
      auto q = GenerateLinearQuery(&rng, 1 + rng.Uniform(5), 0.35, 0.1, 4);
      if (!q.ok()) return 1;
      sum_states += (*q)->size();  // states of a per-query NFA
      const std::string id = "S" + std::to_string(i);
      if (!(*index_engine)->Subscribe(id, (*q)->ToString()).ok()) return 1;
      if (!(*bank_engine)->Subscribe(id, (*q)->ToString()).ok()) return 1;
    }

    auto t0 = std::chrono::steady_clock::now();
    size_t index_matches = 0;
    for (const EventStream& events : docs) {
      auto verdicts = (*index_engine)->FilterEvents(events);
      if (!verdicts.ok()) return 1;
      for (bool v : *verdicts) index_matches += v;
    }
    auto t1 = std::chrono::steady_clock::now();

    size_t separate_matches = 0;
    for (const EventStream& events : docs) {
      auto verdicts = (*bank_engine)->FilterEvents(events);
      if (!verdicts.ok()) return 1;
      for (bool v : *verdicts) separate_matches += v;
    }
    auto t2 = std::chrono::steady_clock::now();

    if (index_matches != separate_matches) {
      std::fprintf(stderr, "verdict mismatch: %zu vs %zu\n", index_matches,
                   separate_matches);
      return 1;
    }

    size_t shared_states =
        (*index_engine)->stats().automaton_states().current();
    auto us = [&](auto a, auto b) {
      return std::chrono::duration_cast<std::chrono::microseconds>(b - a)
                 .count() /
             static_cast<long long>(docs.size());
    };
    std::printf("%-8zu %-14zu %-14zu %-10.2f %-14lld %-14lld\n", n,
                shared_states, sum_states,
                static_cast<double>(sum_states) /
                    static_cast<double>(shared_states),
                (long long)us(t0, t1), (long long)us(t1, t2));
  }
  std::printf(
      "\nexpectation: the sharing ratio grows with the subscription count\n"
      "(common prefixes collapse), and one shared scan beats per-query\n"
      "scans by a widening margin — the YFilter result the paper cites.\n");
  return 0;
}

}  // namespace
}  // namespace xpstream

int main() { return xpstream::RunE10(); }
