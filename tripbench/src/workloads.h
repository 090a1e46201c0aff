#ifndef TRIPBENCH_WORKLOADS_H_
#define TRIPBENCH_WORKLOADS_H_

/// \file
/// The benchmark's three named workloads, generated from a seed with the
/// repository's own workload/ generators and serialized with xml/writer.
/// The server under test only ever receives the resulting bytes; the
/// trees are used once, at set-up, to compute every verdict with the
/// xpath/ tree evaluator (BoolEval), the reference the run checks each
/// DOC_DONE against.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "xpstream/engine.h"

namespace tripbench {

struct QuerySpec {
  std::string xpath;
  xpstream::DeliveryMode mode;
};

struct Workload {
  std::string name;

  // How the server runs and how it is driven.
  std::string engine;           ///< xpstreamd --engine
  size_t pipeline_workers = 1;  ///< 1 = serial server
  size_t publishers = 1;        ///< closed-loop publisher connections
  size_t subscriber_conns = 1;  ///< each subscribes every query
  size_t chunk_bytes = 4096;    ///< DOC_CHUNK payload size

  /// Distinct queries; every subscriber connection subscribes all of
  /// them, so the logical population is subscriber_conns x queries.
  std::vector<QuerySpec> queries;
  /// Distinct generated documents, sent round-robin.
  std::vector<std::string> docs;
  /// expected[d][q]: BoolEval of queries[q] over docs[d].
  std::vector<std::vector<bool>> expected;

  double MeanDocBytes() const;
};

/// Builds workload `name` from `seed`: queries, documents and reference
/// verdicts. kNotFound for an unknown name.
xpstream::Result<Workload> MakeWorkload(const std::string& name,
                                        uint64_t seed);

}  // namespace tripbench

#endif  // TRIPBENCH_WORKLOADS_H_
