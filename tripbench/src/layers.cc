#include "layers.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "lowerbounds/theory.h"
#include "planner/cost_model.h"
#include "xml/parser.h"
#include "xml/stats.h"
#include "xpstream/pipeline.h"
#include "xpstream/query.h"

namespace tripbench {

using xpstream::Engine;
using xpstream::EngineOptions;
using xpstream::EventBuffer;
using xpstream::Status;

namespace {

// xpstreamd's defaults for the caps it applies to its engine.
constexpr size_t kMaxElementDepth = 1024;
constexpr size_t kMaxEntityExpansionBytes = 1u << 20;
constexpr size_t kPoolQueueDepth = 16;
constexpr size_t kPoolSubmitters = 2;
constexpr auto kPoolDoneTimeout = std::chrono::seconds(10);

/// The engine configuration xpstreamd runs for this workload.
EngineOptions ServerEngineOptions(const Workload& w) {
  EngineOptions options;
  options.engine = w.engine;
  options.keep_history = false;
  options.max_element_depth = kMaxElementDepth;
  options.max_entity_expansion_bytes = kMaxEntityExpansionBytes;
  return options;
}

/// Registers the server's population on `target` (an Engine or an
/// EnginePool): every subscriber connection's copy of every query, in
/// the server's registration order. Each call is a span when traced.
template <typename Target>
Status SubscribePopulation(const Workload& w, Target* target, Tracer* tracer,
                           std::vector<double>* call_us) {
  for (size_t c = 0; c < w.subscriber_conns; ++c) {
    for (size_t q = 0; q < w.queries.size(); ++q) {
      const Clock::time_point start = Clock::now();
      const Status status =
          target->Subscribe("c" + std::to_string(c) + "q" + std::to_string(q),
                            w.queries[q].xpath, w.queries[q].mode);
      const Clock::time_point end = Clock::now();
      if (!status.ok()) return status;
      if (tracer != nullptr) tracer->Record("api.subscribe", start, end, -1, -1);
      if (call_us != nullptr) call_us->push_back(Micros(end - start));
    }
  }
  return Status::OK();
}

/// Whether `verdicts` (population order) agree with the reference.
bool AgreesWithReference(const Workload& w, size_t content,
                         const std::vector<bool>& verdicts) {
  const std::vector<bool>& want = w.expected[content];
  if (verdicts.size() != want.size() * w.subscriber_conns) return false;
  for (size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i] != want[i % want.size()]) return false;
  }
  return true;
}

/// Per-document samples of one layer, indexed by corpus position. The
/// measuring loops make one untimed pass first, so caches, arenas and
/// engine structures are warm before any sample is taken.
struct DocTimes {
  explicit DocTimes(size_t docs) : per_doc(docs) {}
  void Add(size_t content, double us) {
    per_doc[content].push_back(us);
    all.push_back(us);
  }
  /// Mean time of one corpus document over every pass.
  double MeanOf(size_t content) const { return Mean(per_doc[content]); }

  std::vector<std::vector<double>> per_doc;
  std::vector<double> all;
};

struct CountingSink : xpstream::EventSink {
  Status OnEvent(const xpstream::Event&) override {
    ++events;
    return Status::OK();
  }
  size_t events = 0;
};

/// XmlParser::Feed/Finish in the server's streaming configuration: a
/// long-lived symbol table, a per-document arena reset after each
/// document, and the workload's chunk size.
DocTimes MeasureParse(const Workload& w, Clock::time_point end,
                      Tracer* tracer, LayerReport* report) {
  xpstream::SymbolTable symbols;
  xpstream::Arena arena;
  CountingSink sink;
  xpstream::XmlParserOptions options;
  options.symbols = &symbols;
  options.arena = &arena;
  DocTimes times(w.docs.size());
  double bytes = 0;
  double busy_us = 0;
  for (int pass = 0; pass < 2 || Clock::now() < end; ++pass) {
    for (size_t d = 0; d < w.docs.size(); ++d) {
      const std::string_view xml = w.docs[d];
      const Clock::time_point start = Clock::now();
      xpstream::XmlParser parser(&sink, options);
      parser.SetMaxEntityExpansionBytes(kMaxEntityExpansionBytes);
      Status status;
      for (size_t at = 0; at < xml.size() && status.ok(); at += w.chunk_bytes) {
        status = parser.Feed(xml.substr(at, w.chunk_bytes));
      }
      if (status.ok()) status = parser.Finish();
      const Clock::time_point stop = Clock::now();
      arena.Reset();
      ++report->attempted;
      if (!status.ok()) ++report->failures;
      if (pass == 0) continue;
      if (tracer != nullptr) tracer->Record("xml.parse", start, stop, -1, d);
      times.Add(d, Micros(stop - start));
      bytes += static_cast<double>(xml.size());
      busy_us += Micros(stop - start);
    }
  }
  const size_t docs = times.all.size();
  report->metrics["xml.parse_us_per_doc"] = {Mean(times.all), "us", docs};
  report->metrics["xml.parse_mb_per_s"] = {bytes / busy_us, "MB/s", docs};
  report->metrics["xml.events_per_doc"] = {
      static_cast<double>(sink.events) / static_cast<double>(docs), "count",
      docs};
  report->parse_p50_us = Median(times.all);
  return times;
}

/// Engine::FilterEvents over the pre-parsed documents: matching alone.
DocTimes MeasureMatch(const Workload& w,
                      const std::vector<EventBuffer>& events,
                      Clock::time_point end, Tracer* tracer,
                      LayerReport* report) {
  DocTimes times(w.docs.size());
  auto engine = Engine::Create(ServerEngineOptions(w));
  if (!engine.ok() ||
      !SubscribePopulation(w, engine->get(), nullptr, nullptr).ok()) {
    ++report->failures;
    return times;
  }
  size_t peak_state_bytes = 0;
  for (int pass = 0; pass < 2 || Clock::now() < end; ++pass) {
    for (size_t d = 0; d < events.size(); ++d) {
      const Clock::time_point start = Clock::now();
      auto verdicts = (*engine)->FilterEvents(events[d].events());
      const Clock::time_point stop = Clock::now();
      ++report->attempted;
      if (!verdicts.ok() || !AgreesWithReference(w, d, *verdicts)) {
        ++report->failures;
      }
      peak_state_bytes =
          std::max(peak_state_bytes, (*engine)->stats().PeakBytes());
      if (pass == 0) continue;
      if (tracer != nullptr) tracer->Record("stream.match", start, stop, -1, d);
      times.Add(d, Micros(stop - start));
    }
  }
  report->metrics["stream.match_us_per_doc"] = {Mean(times.all), "us", times.all.size()};
  report->metrics["stream.peak_table_entries"] = {
      static_cast<double>((*engine)->peak_table_entries()), "count", 0};
  report->metrics["stream.peak_state_bytes"] = {
      static_cast<double>(peak_state_bytes), "bytes", 0};
  report->match_p50_us = Median(times.all);
  return times;
}

/// Thm 8.8 on this workload: the frontier engine's peak live tuples per
/// document over the bound sum_q |Q_q| * (r_q + 1). r_q follows the
/// planner's convention: the document depth for a query with a
/// descendant axis, else the query's own depth capped by it.
void MeasureBoundRatio(const Workload& w,
                       const std::vector<EventBuffer>& events,
                       Clock::time_point end, LayerReport* report) {
  EngineOptions options = ServerEngineOptions(w);
  options.engine = "frontier";
  auto engine = Engine::Create(options);
  if (!engine.ok()) return;
  std::vector<xpstream::QueryShape> shapes;
  for (size_t q = 0; q < w.queries.size(); ++q) {
    auto query = xpstream::CompileQuery(w.queries[q].xpath);
    if (!query.ok()) continue;
    const xpstream::QueryShape shape =
        xpstream::AnalyzeQueryShape(*query->query());
    if ((*engine)->Subscribe("q" + std::to_string(q), std::move(query).value(),
                             w.queries[q].mode).ok()) {
      shapes.push_back(shape);
    }
  }
  double worst = 0;
  size_t docs = 0;
  for (size_t d = 0; d < events.size() && (docs == 0 || Clock::now() < end);
       ++d, ++docs) {
    xpstream::DocumentStatsCollector collector;
    for (const xpstream::Event& event : events[d]) collector.OnEvent(event);
    const size_t depth = collector.stats().depth;
    size_t bound = 0;
    for (const xpstream::QueryShape& shape : shapes) {
      const size_t r =
          shape.has_descendant ? depth : std::min(shape.depth, depth);
      bound += xpstream::FrontierTupleBound(shape.size, r);
    }
    if (!(*engine)->FilterEvents(events[d].events()).ok() || bound == 0) {
      continue;
    }
    const double measured =
        static_cast<double>((*engine)->stats().table_entries().peak());
    worst = std::max(worst, measured / static_cast<double>(bound));
  }
  report->metrics["stream.bound_ratio"] = {worst, "ratio", docs};
}

/// Engine::Subscribe of the whole population into fresh engines: query
/// compilation, canonicalization, planner pricing, matcher insertion.
void MeasureSubscribe(const Workload& w, Clock::time_point end,
                      Tracer* tracer, LayerReport* report) {
  std::vector<double> call_us;
  do {
    auto engine = Engine::Create(ServerEngineOptions(w));
    if (!engine.ok() ||
        !SubscribePopulation(w, engine->get(), tracer, &call_us).ok()) {
      ++report->failures;
      return;
    }
  } while (Clock::now() < end);
  report->metrics["api.subscribe_us"] = {Mean(call_us), "us", call_us.size()};
}

/// Chunked Engine::Feed + FinishDocument: the facade's byte path, which
/// is what the serial server runs per document.
void MeasureFacade(const Workload& w, Clock::time_point end, Tracer* tracer,
                   const DocTimes& parse, const DocTimes& match,
                   LayerReport* report) {
  auto engine = Engine::Create(ServerEngineOptions(w));
  if (!engine.ok() ||
      !SubscribePopulation(w, engine->get(), nullptr, nullptr).ok()) {
    ++report->failures;
    return;
  }
  DocTimes times(w.docs.size());
  for (int pass = 0; pass < 2 || Clock::now() < end; ++pass) {
    for (size_t d = 0; d < w.docs.size(); ++d) {
      const std::string_view xml = w.docs[d];
      const Clock::time_point start = Clock::now();
      Status status;
      for (size_t at = 0; at < xml.size() && status.ok(); at += w.chunk_bytes) {
        status = (*engine)->Feed(xml.substr(at, w.chunk_bytes));
      }
      if (status.ok()) status = (*engine)->FinishDocument();
      const Clock::time_point stop = Clock::now();
      ++report->attempted;
      if (!status.ok() ||
          !AgreesWithReference(w, d, (*engine)->last_verdicts())) {
        ++report->failures;
      }
      if (pass == 0) continue;
      if (tracer != nullptr) tracer->Record("api.filter", start, stop, -1, d);
      times.Add(d, Micros(stop - start));
    }
  }
  report->metrics["api.facade_us_per_doc"] = {
      Mean(times.all) - Mean(parse.all) - Mean(match.all), "us",
      times.all.size()};
  report->api_p50_us = Median(times.all);
}

/// Completion times of pool documents; worker threads post, submitters
/// wait.
class PoolProbe : public xpstream::PoolSink {
 public:
  void OnDocumentDone(uint64_t doc, const xpstream::SubscriptionIds&,
                      std::vector<bool>, std::vector<size_t>) override {
    Complete(doc);
  }
  void OnDocumentError(uint64_t doc, Status) override { Complete(doc); }

  std::optional<Clock::time_point> Await(uint64_t doc) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!cv_.wait_for(lock, kPoolDoneTimeout,
                      [&] { return done_.count(doc) != 0; })) {
      return std::nullopt;
    }
    const Clock::time_point at = done_[doc];
    done_.erase(doc);
    return at;
  }

 private:
  void Complete(uint64_t doc) {
    const Clock::time_point now = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_[doc] = now;
    }
    cv_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<uint64_t, Clock::time_point> done_;  // guarded by mu_
};

struct PoolRun {
  double docs_per_s = 0;
  std::vector<double> sojourn_us;
  std::vector<double> queue_wait_us;  // sojourn minus match service
  size_t queue_peak = 0;
  bool ok = true;
};

/// EnginePool::TrySubmitEvents -> PoolSink::OnDocumentDone with
/// kPoolSubmitters closed-loop submitters (the calling thread and one
/// more), each submitting its next document once the previous is done.
PoolRun RunPool(const Workload& w, const std::vector<EventBuffer>& events,
                const DocTimes& match, size_t workers, Clock::time_point end,
                Tracer* tracer) {
  PoolRun run;
  xpstream::PipelineOptions options;
  options.engine = ServerEngineOptions(w);
  options.workers = workers;
  options.queue_depth = kPoolQueueDepth;
  auto pool = xpstream::EnginePool::Create(options);
  if (!pool.ok() ||
      !SubscribePopulation(w, pool->get(), nullptr, nullptr).ok()) {
    run.ok = false;
    return run;
  }
  PoolProbe probe;
  (*pool)->SetSink(&probe);
  std::mutex mu;
  size_t completed = 0;
  auto submit = [&](size_t first) {
    for (uint64_t seq = first; Clock::now() < end; seq += kPoolSubmitters) {
      const size_t content = seq % events.size();
      EventBuffer copy = EventBuffer::DeepCopy(events[content].events());
      const Clock::time_point start = Clock::now();
      uint64_t doc = 0;
      std::optional<Clock::time_point> done;
      if ((*pool)->TrySubmitEvents(std::move(copy), &doc).ok()) {
        done = probe.Await(doc);
      }
      std::lock_guard<std::mutex> lock(mu);
      if (!done) {
        run.ok = false;
        return;
      }
      if (tracer != nullptr) {
        tracer->Record("pipeline.sojourn", start, *done, -1,
                       static_cast<int64_t>(seq));
      }
      const double sojourn = Micros(*done - start);
      run.sojourn_us.push_back(sojourn);
      run.queue_wait_us.push_back(sojourn - match.MeanOf(content));
      ++completed;
    }
  };
  const Clock::time_point start = Clock::now();
  std::thread helper(submit, 1);
  submit(0);
  helper.join();
  (*pool)->Drain();
  run.docs_per_s = static_cast<double>(completed) / Seconds(Clock::now() - start);
  run.queue_peak = (*pool)->queue_peak();
  (*pool)->SetSink(nullptr);
  return run;
}

}  // namespace

LayerReport MeasureLayers(const Workload& w, double budget_s, Tracer* tracer) {
  LayerReport report;
  std::vector<EventBuffer> events;
  for (const std::string& xml : w.docs) {
    auto parsed = xpstream::ParseXmlToEvents(xml);
    if (!parsed.ok()) {
      ++report.failures;
      return report;
    }
    events.push_back(std::move(parsed).value());
  }
  // Seven measurements share the budget equally.
  const auto slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(budget_s / 7));
  const DocTimes parse = MeasureParse(w, Clock::now() + slice, tracer, &report);
  const DocTimes match =
      MeasureMatch(w, events, Clock::now() + slice, tracer, &report);
  MeasureBoundRatio(w, events, Clock::now() + slice, &report);
  MeasureSubscribe(w, Clock::now() + slice, tracer, &report);
  MeasureFacade(w, Clock::now() + slice, tracer, parse, match, &report);
  const PoolRun one = RunPool(w, events, match, 1, Clock::now() + slice, nullptr);
  const PoolRun two = RunPool(w, events, match, 2, Clock::now() + slice, tracer);
  report.attempted += one.sojourn_us.size() + two.sojourn_us.size() + 2;
  if (!one.ok || !two.ok) ++report.failures;
  report.metrics["pipeline.sojourn_p50_us"] = {Median(two.sojourn_us), "us", two.sojourn_us.size()};
  report.metrics["pipeline.queue_wait_p50_us"] = {Median(two.queue_wait_us), "us", two.queue_wait_us.size()};
  report.metrics["pipeline.speedup_2w"] = {
      one.docs_per_s > 0 ? two.docs_per_s / one.docs_per_s : 0, "x", 0};
  report.metrics["pipeline.queue_peak"] = {static_cast<double>(two.queue_peak), "count", 0};
  report.queue_wait_p50_us = Median(two.queue_wait_us);
  return report;
}

}  // namespace tripbench
