// xptrip: the document-trip benchmark's load generator. Spawns a fresh
// xpstreamd for one workload, drives it over loopback, checks every
// verdict against the tree evaluator, and prints each metric by name and
// unit, then one JSON line:
//
//   xptrip --workload bib-fanout --seed 1 --seconds 15 --trace 0
//          --server .bench_build/tripbench/xpstream/src/xpstreamd
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the traced run:
// it reports the per-layer metrics, splits the document trip by layer,
// and writes its spans as JSONL to --trace-out. --plant-wrong-verdict
// flips one reference verdict; the run must then fail (the smoke check
// uses it).

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "layers.h"
#include "report.h"
#include "trace.h"
#include "trip.h"
#include "workloads.h"

namespace tripbench {
namespace {

// Spans kept per span name: enough for stable self-time medians while
// keeping the JSONL file around ten megabytes.
constexpr size_t kSpansPerName = 10000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string trace_out;
  bool plant_wrong_verdict = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: xptrip --workload NAME --server PATH [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out FILE] "
               "[--plant-wrong-verdict]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plant-wrong-verdict") {
      args->plant_wrong_verdict = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--server") {
      args->server = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (!(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      if (!args->trace && std::strcmp(value, "0") != 0) return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args->workload.empty() && !args->server.empty();
}

void PrintMetric(const std::string& name, const Metric& metric) {
  std::printf("%-28s %14.3f %-6s", name.c_str(), metric.value,
              metric.unit.c_str());
  if (metric.samples > 0) std::printf(" (n=%zu)", metric.samples);
  std::printf("\n");
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* separator = "";
  for (const auto& [name, metric] : metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", separator,
                name.c_str(), value, metric.unit.c_str());
    separator = ", ";
  }
  std::printf("}}\n");
}

Metrics EndToEndMetrics(const Workload& w, const TripResult& trip) {
  const PhaseSamples& m = trip.measured;
  Metrics out;
  out["docs_per_s"] = {m.DocsPerSecond(w.publishers), "1/s", m.docs};
  out["doc_latency_p50_us"] = {SegmentedPercentile(m.latency_us, 0.5), "us",
                               m.latency_us.size()};
  out["first_match_p50_us"] = {SegmentedPercentile(m.first_match_us, 0.5),
                               "us", m.first_match_us.size()};
  out["subscribe_p50_us"] = {SegmentedPercentile(m.subscribe_us, 0.5), "us",
                             m.subscribe_us.size()};
  out["server_peak_rss_mb"] = {trip.server_peak_rss_mb, "MB", 0};
  out["setup_s"] = {Median(trip.setup_s), "s", trip.setup_s.size()};
  return out;
}

double Stat(const TripResult& trip, const char* key) {
  auto it = trip.stats.find(key);
  return it == trip.stats.end() ? 0 : it->second;
}

/// Adds the server.* and trace.* metrics, then prints how the untraced
/// document trip splits across the layers and the spans' self times.
void AddServerMetrics(const Workload& w, const TripResult& trip,
                      const Tracer& tracer, LayerReport* layers) {
  const PhaseSamples& m = trip.measured;
  const double trip_p50 = SegmentedPercentile(m.latency_us, 0.5);
  Metrics& out = layers->metrics;
  out["server.overhead_us_per_doc"] = {trip_p50 - layers->api_p50_us, "us", 0};
  out["server.push_frames_per_doc"] = {
      m.docs > 0 ? static_cast<double>(m.push_frames) / m.docs : 0, "count",
      m.docs};
  out["server.dropped_frames"] = {Stat(trip, "dropped_frames"), "count", 0};
  out["server.arena_bytes"] = {Stat(trip, "arena_bytes"), "bytes", 0};
  out["server.peak_buffered_bytes"] = {Stat(trip, "peak_buffered_bytes"),
                                       "bytes", 0};
  out["server.queue_rejects"] = {Stat(trip, "queue_rejects"), "count", 0};
  const double untraced = m.DocsPerSecond(w.publishers);
  const double traced = trip.traced.DocsPerSecond(w.publishers);
  out["trace.docs_per_s_ratio"] = {untraced > 0 ? traced / untraced : 0,
                                   "ratio", 0};

  const bool pooled = w.pipeline_workers > 1;
  const double queue_wait = pooled ? layers->queue_wait_p50_us : 0;
  struct Row {
    const char* layer;
    double us;
  };
  const std::vector<Row> rows = {
      {"xml.parse (scan+tokenize+intern)", layers->parse_p50_us},
      {"stream.match", layers->match_p50_us},
      {"api.facade (api - parse - match)",
       layers->api_p50_us - layers->parse_p50_us - layers->match_p50_us},
      {"pipeline.queue_wait", queue_wait},
      {"server+wire (trip - api - queue)",
       trip_p50 - layers->api_p50_us - queue_wait},
  };
  std::printf("# document trip p50 = %.1f us (untraced, n=%zu); per-layer "
              "medians and their share of it:\n",
              trip_p50, m.latency_us.size());
  for (const Row& row : rows) {
    if (!pooled && row.us == 0) continue;
    std::printf("#   %-36s %10.1f us %6.1f%%\n", row.layer, row.us,
                trip_p50 > 0 ? 100 * row.us / trip_p50 : 0);
  }
  std::printf("# span self times (traced phase and in-process layers):\n");
  for (const SelfTime& self : tracer.SelfTimes()) {
    std::printf("#   %-20s n=%-8zu self p50 %10.1f us  mean %10.1f us  "
                "%6.1f%% of trip p50\n",
                self.name.c_str(), self.count, self.p50_us, self.mean_us,
                trip_p50 > 0 ? 100 * self.p50_us / trip_p50 : 0);
  }
  std::printf("# tracing overhead: docs_per_s traced %.1f vs untraced %.1f\n",
              traced, untraced);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  // A vanished peer must fail the call that writes to it, not kill us.
  std::signal(SIGPIPE, SIG_IGN);

  auto made = MakeWorkload(args.workload, args.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "xptrip: %s\n", made.status().ToString().c_str());
    return 2;
  }
  Workload& w = *made;
  if (args.plant_wrong_verdict) w.expected[0][0] = !w.expected[0][0];

  std::printf("# tripbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# inputs: documents=%zu mean_doc_bytes=%.1f queries=%zu "
              "subscriptions=%zu publishers=%zu subscriber_connections=%zu "
              "engine=%s pipeline_workers=%zu chunk_bytes=%zu\n",
              w.docs.size(), w.MeanDocBytes(), w.queries.size(),
              w.queries.size() * w.subscriber_conns, w.publishers,
              w.subscriber_conns, w.engine.c_str(), w.pipeline_workers,
              w.chunk_bytes);

  Tracer tracer(kSpansPerName);
  TripOptions options;
  options.server_binary = args.server;
  // The traced run spends 30% of its time untraced (the overhead
  // baseline), 30% traced end to end, and 40% on the layers in process.
  options.measure_s = args.trace ? 0.3 * args.seconds : args.seconds;
  options.traced_s = args.trace ? 0.3 * args.seconds : 0;
  options.tracer = args.trace ? &tracer : nullptr;
  const TripResult trip = RunTrip(w, options);
  std::printf("# setup_s samples:");
  for (double s : trip.setup_s) std::printf(" %.6f", s);
  std::printf("\n");

  uint64_t attempted = trip.attempted;
  uint64_t failed = trip.failed;
  Metrics metrics;
  // Printed but kept out of the JSON result: on a shared host the p99
  // moves with CPU steal by more than any regression bound could allow.
  Metrics ungated;
  if (!args.trace) {
    metrics = EndToEndMetrics(w, trip);
    ungated["doc_latency_p99_us"] = {
        SegmentedPercentile(trip.measured.latency_us, 0.99), "us",
        trip.measured.latency_us.size()};
  } else if (failed == 0) {
    LayerReport layers = MeasureLayers(w, 0.4 * args.seconds, &tracer);
    attempted += layers.attempted;
    failed += layers.failures;
    AddServerMetrics(w, trip, tracer, &layers);
    metrics = std::move(layers.metrics);
    if (!args.trace_out.empty() && !tracer.WriteJsonl(args.trace_out)) {
      std::fprintf(stderr, "xptrip: cannot write %s\n", args.trace_out.c_str());
    }
    std::printf("# spans: %zu kept, %zu dropped%s%s\n", tracer.size(),
                tracer.dropped(), args.trace_out.empty() ? "" : ", written to ",
                args.trace_out.c_str());
  }
  for (const auto& [name, metric] : metrics) PrintMetric(name, metric);
  for (const auto& [name, metric] : ungated) PrintMetric(name, metric);
  std::printf("%-28s %14.6f (%llu failed / %llu attempted)\n", "error_rate",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const std::string& error : trip.errors) {
    std::printf("# failure: %s\n", error.c_str());
  }
  const bool correct = failed == 0;
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tripbench

int main(int argc, char** argv) { return tripbench::Main(argc, argv); }
