// xpstreamd — the long-running XPath dissemination service. Owns one
// Engine (or, with --pipeline-workers N >= 2, an EnginePool) behind the
// TCP protocol of docs/protocol.md; runs until SIGINT/SIGTERM, then
// shuts down gracefully (exit 0).
//
//   $ xpstreamd --port 7845 --engine frontier
//   xpstreamd listening on 127.0.0.1:7845 (engine=frontier, workers=1)

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "xpstream/server.h"

namespace {

// Self-pipe: the handler may only do async-signal-safe work, so it
// writes one byte and main() — blocked on the read — does the rest.
int g_signal_pipe[2] = {-1, -1};

void HandleSignal(int) {
  const char byte = 's';
  [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

// Strict decimal parse: every character a digit, value within
// [0, max_value]. atoi-style silent-zero on garbage is how "--port
// 78x45" ends up binding an ephemeral port.
bool ParseUnsigned(const char* text, uint64_t max_value, uint64_t* out) {
  if (*text == '\0') return false;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno == ERANGE || value > max_value) return false;
  *out = value;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--address A] [--port N] [--engine NAME]\n"
      "          [--pipeline-workers N] [--doc-queue-depth N]\n"
      "          [--max-document-bytes N] [--max-frame-bytes N]\n"
      "          [--max-element-depth N] [--max-entity-expansion-bytes N]\n"
      "          [--outbox-frames N] [--max-connections N]\n"
      "          [--idle-timeout-ms N] [--memory-budget-bytes N]\n"
      "          [--admission reject|degrade]\n"
      "defaults: 127.0.0.1, ephemeral port, frontier, 1 worker\n"
      "--pipeline-workers N >= 2 runs an EnginePool of N replicas so many\n"
      "publishers stream documents concurrently (DOC_OK acks then precede\n"
      "the document's MATCH/DOC_DONE pushes); --doc-queue-depth bounds the\n"
      "documents waiting for a worker — a DOC_END past it is answered with\n"
      "a ResourceExhausted ERROR (publisher backpressure).\n"
      "--engine NAME picks a registry engine, or `auto` to let the query\n"
      "planner route each subscription to the predicted-cheapest engine.\n"
      "--memory-budget-bytes N admission-controls subscriptions: one whose\n"
      "planner-predicted peak would overrun the budget is rejected with a\n"
      "ResourceExhausted ERROR frame (--admission reject, the default) or\n"
      "admitted with delivery degraded to at-end (--admission degrade).\n"
      "0 disables admission control.\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xpstream;

  ServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--help" || arg == "-h") return Usage(argv[0]);
    if (value == nullptr) return Usage(argv[0]);
    uint64_t number = 0;
    if (arg == "--address") {
      options.bind_address = value;
    } else if (arg == "--engine") {
      options.engine.engine = value;
    } else if (arg == "--port") {
      if (!ParseUnsigned(value, 65535, &number)) return Usage(argv[0]);
      options.port = static_cast<uint16_t>(number);
    } else if (arg == "--max-document-bytes") {
      if (!ParseUnsigned(value, SIZE_MAX, &number)) return Usage(argv[0]);
      options.max_document_bytes = static_cast<size_t>(number);
    } else if (arg == "--max-frame-bytes") {
      if (!ParseUnsigned(value, SIZE_MAX, &number)) return Usage(argv[0]);
      options.max_frame_bytes = static_cast<size_t>(number);
    } else if (arg == "--max-element-depth") {
      if (!ParseUnsigned(value, SIZE_MAX, &number)) return Usage(argv[0]);
      options.engine.max_element_depth = static_cast<size_t>(number);
    } else if (arg == "--max-entity-expansion-bytes") {
      if (!ParseUnsigned(value, SIZE_MAX, &number)) return Usage(argv[0]);
      options.engine.max_entity_expansion_bytes = static_cast<size_t>(number);
    } else if (arg == "--pipeline-workers") {
      if (!ParseUnsigned(value, SIZE_MAX, &number)) return Usage(argv[0]);
      options.pipeline_workers = static_cast<size_t>(number);
    } else if (arg == "--doc-queue-depth") {
      if (!ParseUnsigned(value, SIZE_MAX, &number)) return Usage(argv[0]);
      options.doc_queue_depth = static_cast<size_t>(number);
    } else if (arg == "--outbox-frames") {
      if (!ParseUnsigned(value, SIZE_MAX, &number)) return Usage(argv[0]);
      options.outbox_frames = static_cast<size_t>(number);
    } else if (arg == "--max-connections") {
      if (!ParseUnsigned(value, SIZE_MAX, &number)) return Usage(argv[0]);
      options.max_connections = static_cast<size_t>(number);
    } else if (arg == "--idle-timeout-ms") {
      if (!ParseUnsigned(value, INT_MAX, &number)) return Usage(argv[0]);
      options.idle_timeout_ms = static_cast<int>(number);
    } else if (arg == "--memory-budget-bytes") {
      if (!ParseUnsigned(value, SIZE_MAX, &number)) return Usage(argv[0]);
      options.engine.memory_budget_bytes = static_cast<size_t>(number);
    } else if (arg == "--admission") {
      const std::string policy = value;
      if (policy == "reject") {
        options.engine.admission = AdmissionPolicy::kReject;
      } else if (policy == "degrade") {
        options.engine.admission = AdmissionPolicy::kDegrade;
      } else {
        return Usage(argv[0]);
      }
    } else {
      return Usage(argv[0]);
    }
    ++i;
  }
  if (::pipe(g_signal_pipe) != 0) {
    std::perror("pipe");
    return 1;
  }
  struct sigaction action {};
  action.sa_handler = HandleSignal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // peer resets must not kill the daemon

  auto server = Server::Start(options);
  if (!server.ok()) {
    std::fprintf(stderr, "xpstreamd: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "xpstreamd listening on %s:%u (engine=%s, workers=%zu)\n",
      options.bind_address.c_str(), (*server)->port(),
      options.engine.engine.c_str(), options.pipeline_workers);
  std::fflush(stdout);

  char byte;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::printf("xpstreamd: shutting down\n");
  (*server)->Stop();
  return 0;
}
