// Experiment E9 (the paper's motivating scenario, cf. [1,14]): selective
// dissemination of information — a stream of documents filtered against
// a set of standing subscription queries, driven through the public
// Engine facade so the engine under test is just a registry name.
//
// Sweeps engine choice (frontier vs the buffering naive oracle) on the
// bibliography corpus and the recursive message feed, reporting
// events/sec and peak memory. The reproduced "shape": the frontier
// engine's memory is document-size independent while the buffering
// engine's is Θ(|D|).

// The 1024-subscription dissemination workload rides on the same
// harness, over the shared-automaton engine and the frontier filter
// bank.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "workload/scenarios.h"
#include "xpstream/xpstream.h"

namespace xpstream {
namespace {

struct Workload {
  std::vector<std::string> queries;
  std::vector<EventStream> documents;
  /// Owns the trees the documents' event views point into.
  std::vector<std::unique_ptr<XmlDocument>> storage;
};

Workload BibliographyWorkload(size_t docs) {
  Workload w;
  w.queries = BibliographySubscriptions();
  for (auto& doc : GenerateBibliographyCorpus(docs, 20240613)) {
    w.storage.push_back(std::move(doc));
    w.documents.push_back(w.storage.back()->ToEvents());
  }
  return w;
}

Workload FeedWorkload(size_t docs, size_t recursion) {
  Workload w;
  Random rng(7);
  w.queries = MessageFeedSubscriptions();
  for (size_t i = 0; i < docs; ++i) {
    w.storage.push_back(GenerateMessageFeed(8, recursion, &rng));
    w.documents.push_back(w.storage.back()->ToEvents());
  }
  return w;
}

// 1024 linear-path subscriptions over a small name pool — the paper's
// motivating dissemination scale (construction in workload/scenarios.h).
// Built once and leaked deliberately: both 1024-query rows read it, and
// benchmark registration outlives static destruction order guarantees.
const Workload& SweepWorkload() {
  static const Workload* workload = [] {
    DisseminationSweepWorkload sweep = MakeDisseminationSweep(1024, 20);
    return new Workload{std::move(sweep.queries), std::move(sweep.documents),
                        std::move(sweep.storage)};
  }();
  return *workload;
}

void RunWorkload(benchmark::State& state, const std::string& engine_name,
                 const Workload& workload) {
  EngineOptions options;
  options.engine = engine_name;
  options.keep_history = false;  // the timed loop must not accumulate
  auto engine = Engine::Create(options);
  if (!engine.ok()) std::abort();
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    if (!(*engine)->Subscribe("S" + std::to_string(q), workload.queries[q])
             .ok()) {
      std::abort();
    }
  }
  size_t total_events = 0;
  for (const auto& d : workload.documents) total_events += d.size();

  size_t matches = 0;
  for (auto _ : state) {
    matches = 0;
    for (const auto& events : workload.documents) {
      auto verdicts = (*engine)->FilterEvents(events);
      if (!verdicts.ok()) std::abort();
      for (bool v : *verdicts) matches += v;
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(total_events * workload.queries.size()));
  state.counters["matches"] = static_cast<double>(matches);
  state.counters["peak_bytes"] =
      static_cast<double>((*engine)->stats().PeakBytes());
  state.counters["docs_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(workload.documents.size()),
      benchmark::Counter::kIsRate);
}

void BM_Bibliography_Frontier(benchmark::State& state) {
  Workload w = BibliographyWorkload(static_cast<size_t>(state.range(0)));
  RunWorkload(state, "frontier", w);
}
BENCHMARK(BM_Bibliography_Frontier)->Arg(50)->Arg(200);

void BM_Bibliography_Naive(benchmark::State& state) {
  Workload w = BibliographyWorkload(static_cast<size_t>(state.range(0)));
  RunWorkload(state, "naive", w);
}
BENCHMARK(BM_Bibliography_Naive)->Arg(50)->Arg(200);

void BM_MessageFeed_Frontier(benchmark::State& state) {
  Workload w = FeedWorkload(20, static_cast<size_t>(state.range(0)));
  RunWorkload(state, "frontier", w);
}
BENCHMARK(BM_MessageFeed_Frontier)->Arg(2)->Arg(8)->Arg(32);

void BM_MessageFeed_Naive(benchmark::State& state) {
  Workload w = FeedWorkload(20, static_cast<size_t>(state.range(0)));
  RunWorkload(state, "naive", w);
}
BENCHMARK(BM_MessageFeed_Naive)->Arg(2)->Arg(8)->Arg(32);

// 1024 subscriptions over the shared-automaton engine.
void BM_Dissemination1024_NfaIndex(benchmark::State& state) {
  RunWorkload(state, "nfa_index", SweepWorkload());
}
BENCHMARK(BM_Dissemination1024_NfaIndex)->Unit(benchmark::kMillisecond);

// The same subscriptions over the frontier filter bank: one
// per-subscription filter each, sharing the scan.
void BM_Dissemination1024_Frontier(benchmark::State& state) {
  RunWorkload(state, "frontier", SweepWorkload());
}
BENCHMARK(BM_Dissemination1024_Frontier)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xpstream
