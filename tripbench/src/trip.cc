#include "trip.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/string_util.h"
#include "server/wire.h"
#include "xpstream/server.h"

namespace tripbench {

using xpstream::Client;
using xpstream::DeliveryMode;
using xpstream::Result;
using xpstream::Status;
using xpstream::StringPrintf;
namespace wire = xpstream::wire;

namespace {

// Set-ups per run (setup_s is their median) and untimed warm-up after.
constexpr int kSetups = 11;
constexpr double kWarmupSeconds = 1.0;
constexpr auto kDocDoneTimeout = std::chrono::seconds(10);
constexpr auto kControlInterval = std::chrono::milliseconds(20);
constexpr int kReplyTimeoutMs = 10'000;
constexpr size_t kMaxLoggedErrors = 8;
constexpr size_t kMaxPushFrameBytes = 64u << 20;

Status SendAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n > 0) {
      bytes.remove_prefix(static_cast<size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return Status::Internal("send failed: errno " + std::to_string(errno));
    }
  }
  return Status::OK();
}

Result<int> ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Internal("socket() failed");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof address) !=
      0) {
    const int error = errno;
    ::close(fd);
    return Status::Internal("connect failed: errno " + std::to_string(error));
  }
  return fd;
}

std::map<std::string, double> ParseStats(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    out[line.substr(0, eq)] = std::strtod(line.c_str() + eq + 1, nullptr);
  }
  return out;
}

// --- the server under test ---------------------------------------------

/// One xpstreamd child process. Spawn() returns once the daemon printed
/// its listening banner, so port() accepts connections. The destructor
/// stops the process (SIGTERM, SIGKILL after a grace period) and reaps it.
class ServerProcess {
 public:
  static Result<std::unique_ptr<ServerProcess>> Spawn(
      const std::string& binary, const Workload& w);

  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }

  /// VmHWM, the peak resident set, in MiB; 0 when unreadable.
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0;
  }

  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    int status = 0;
    while (true) {
      const pid_t reaped = ::waitpid(pid_, &status, WNOHANG);
      if (reaped == pid_ || (reaped < 0 && errno != EINTR)) break;
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
  }

 private:
  explicit ServerProcess(pid_t pid) : pid_(pid) {}

  /// Reads "xpstreamd listening on 127.0.0.1:PORT (...)" from `fd`.
  Status ReadBanner(int fd) {
    std::string text;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(kReplyTimeoutMs);
    while (text.find('\n') == std::string::npos) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      if (left <= 0) return Status::Internal("xpstreamd printed no banner");
      pollfd ready{fd, POLLIN, 0};
      const int polled = ::poll(&ready, 1, static_cast<int>(left));
      if (polled < 0 && errno != EINTR) return Status::Internal("poll failed");
      if (polled <= 0) continue;
      char buffer[256];
      const ssize_t n = ::read(fd, buffer, sizeof buffer);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::Internal("xpstreamd exited before listening");
      text.append(buffer, static_cast<size_t>(n));
    }
    const size_t at = text.find("listening on ");
    const size_t colon =
        at == std::string::npos ? std::string::npos : text.find(':', at);
    if (colon != std::string::npos) {
      port_ = static_cast<uint16_t>(
          std::strtoul(text.c_str() + colon + 1, nullptr, 10));
    }
    if (port_ == 0) return Status::Internal("unexpected banner: " + text);
    return Status::OK();
  }

  pid_t pid_;
  uint16_t port_ = 0;
};

Result<std::unique_ptr<ServerProcess>> ServerProcess::Spawn(
    const std::string& binary, const Workload& w) {
  std::vector<std::string> args = {
      binary,     "--address", "127.0.0.1",          "--port",
      "0",        "--engine",  w.engine,             "--pipeline-workers",
      std::to_string(w.pipeline_workers)};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) return Status::Internal("pipe2 failed");
  // posix_spawn rather than fork: no copy of this process's page tables,
  // so spawn time does not depend on how large the workload is. The
  // daemon stays in this process group, which run.py reaps if this
  // process dies before the destructor below runs.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  pid_t pid = -1;
  const int spawned =
      ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  if (spawned != 0) {
    ::close(out[0]);
    return Status::Internal("cannot spawn " + binary + ": errno " +
                            std::to_string(spawned));
  }
  std::unique_ptr<ServerProcess> process(new ServerProcess(pid));
  const Status banner = process->ReadBanner(out[0]);
  ::close(out[0]);
  if (!banner.ok()) return banner;
  return process;
}

// --- subscriber side ---------------------------------------------------

/// What the subscriber connections received for one document.
struct Arrivals {
  size_t done_conns = 0;
  Clock::time_point last_done{};
  Clock::time_point first_match{};
  bool earliest_matched = false;
  uint64_t push_frames = 0;
  /// Per subscriber connection: the DOC_DONE (wire id, hit) pairs and
  /// the wire ids of the MATCH frames.
  std::vector<std::vector<std::pair<uint32_t, bool>>> verdicts;
  std::vector<std::vector<uint32_t>> matched;
};

/// Where subscriber reader threads post arrivals and publishers wait for
/// them, keyed by the server's document index (a pooled server may push
/// DOC_DONE before the publisher has read its DOC_OK).
class DocBoard {
 public:
  explicit DocBoard(size_t conns) : conns_(conns) {}

  void OnMatch(size_t conn, uint64_t doc, uint32_t sub, bool earliest,
               Clock::time_point at) {
    std::lock_guard<std::mutex> lock(mu_);
    Arrivals& arrivals = Slot(doc);
    arrivals.matched[conn].push_back(sub);
    ++arrivals.push_frames;
    if (earliest &&
        (!arrivals.earliest_matched || at < arrivals.first_match)) {
      arrivals.first_match = at;
      arrivals.earliest_matched = true;
    }
  }

  void OnDocDone(size_t conn, uint64_t doc,
                 std::vector<std::pair<uint32_t, bool>> verdicts,
                 Clock::time_point at) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      Arrivals& arrivals = Slot(doc);
      arrivals.verdicts[conn] = std::move(verdicts);
      ++arrivals.push_frames;
      ++arrivals.done_conns;
      arrivals.last_done = std::max(arrivals.last_done, at);
    }
    cv_.notify_all();
  }

  void Fail(std::string why) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      failures_.push_back(std::move(why));
    }
    cv_.notify_all();
  }

  /// Waits until every subscriber connection delivered `doc`'s DOC_DONE,
  /// then removes and returns its arrivals; nullopt on timeout or when a
  /// subscriber connection failed.
  std::optional<Arrivals> Await(uint64_t doc, Clock::duration timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    auto complete = [&] {
      auto it = docs_.find(doc);
      return it != docs_.end() && it->second.done_conns == conns_;
    };
    cv_.wait_for(lock, timeout,
                 [&] { return complete() || !failures_.empty(); });
    if (!complete()) return std::nullopt;
    auto it = docs_.find(doc);
    Arrivals arrivals = std::move(it->second);
    docs_.erase(it);
    return arrivals;
  }

  std::vector<std::string> failures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }

 private:
  Arrivals& Slot(uint64_t doc) {
    auto [it, inserted] = docs_.try_emplace(doc);
    if (inserted) {
      it->second.verdicts.resize(conns_);
      it->second.matched.resize(conns_);
    }
    return it->second;
  }

  const size_t conns_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<uint64_t, Arrivals> docs_;  // guarded by mu_
  std::vector<std::string> failures_;            // guarded by mu_
};

/// A subscriber connection on the raw wire protocol, so every push frame
/// is timestamped when its bytes arrive (the blocking Client only reads
/// pushes inside its own requests). Subscribes before Start(); after
/// that a reader thread owns the receive side.
class SubscriberConn {
 public:
  SubscriberConn(int fd, size_t index) : fd_(fd), index_(index) {}
  ~SubscriberConn() {
    Stop();
    ::close(fd_);
  }
  SubscriberConn(const SubscriberConn&) = delete;
  SubscriberConn& operator=(const SubscriberConn&) = delete;

  /// One SUBSCRIBE round trip; returns the wire id.
  Result<uint32_t> Subscribe(const QuerySpec& query) {
    const bool earliest = query.mode == DeliveryMode::kEarliest;
    XPS_RETURN_IF_ERROR(
        SendAll(fd_, wire::EncodeSubscribe(earliest ? 1 : 0, query.xpath)));
    auto frame = ReadFrameBlocking();
    if (!frame.ok()) return frame.status();
    if (frame->type == wire::FrameType::kError) {
      return wire::DecodeError(frame->payload);
    }
    wire::PayloadReader reader(frame->payload);
    const uint32_t id = reader.ReadU32();
    if (frame->type != wire::FrameType::kSubscribeOk || !reader.Done()) {
      return Status::Internal("unexpected reply to SUBSCRIBE");
    }
    earliest_[id] = earliest;
    return id;
  }

  void Start(DocBoard* board) {
    reader_ = std::thread([this, board] { ReadLoop(board); });
  }

  /// This connection's STATS (dropped_frames is per connection).
  Result<std::string> Stats() {
    XPS_RETURN_IF_ERROR(
        SendAll(fd_, wire::EncodeFrame(wire::FrameType::kStats, "")));
    std::unique_lock<std::mutex> lock(stats_mu_);
    if (!stats_cv_.wait_for(lock, std::chrono::milliseconds(kReplyTimeoutMs),
                            [&] { return stats_.has_value(); })) {
      return Status::Internal("no STATS reply on a subscriber connection");
    }
    return *stats_;
  }

  void Stop() {
    stop_ = true;
    if (reader_.joinable()) reader_.join();
  }

 private:
  Result<wire::Frame> ReadFrameBlocking() {
    while (true) {
      auto next = decoder_.Next();
      if (!next.ok()) return next.status();
      if (next->has_value()) return std::move(**next);
      pollfd ready{fd_, POLLIN, 0};
      const int polled = ::poll(&ready, 1, kReplyTimeoutMs);
      if (polled < 0 && errno == EINTR) continue;
      if (polled <= 0) return Status::Internal("no reply from the server");
      char buffer[4096];
      const ssize_t n = ::read(fd_, buffer, sizeof buffer);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::Internal("connection closed by the server");
      decoder_.Append(std::string_view(buffer, static_cast<size_t>(n)));
    }
  }

  void ReadLoop(DocBoard* board) {
    std::vector<char> buffer(256 * 1024);
    while (!stop_) {
      pollfd ready{fd_, POLLIN, 0};
      const int polled = ::poll(&ready, 1, 50);
      if (polled == 0 || (polled < 0 && errno == EINTR)) continue;
      const ssize_t n =
          polled < 0 ? -1 : ::read(fd_, buffer.data(), buffer.size());
      const Clock::time_point at = Clock::now();
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        if (!stop_) board->Fail("subscriber connection lost");
        return;
      }
      decoder_.Append(std::string_view(buffer.data(), static_cast<size_t>(n)));
      while (true) {
        auto next = decoder_.Next();
        if (!next.ok()) {
          board->Fail("subscriber framing error: " + next.status().ToString());
          return;
        }
        if (!next->has_value()) break;
        Handle(**next, at, board);
      }
    }
  }

  void Handle(const wire::Frame& frame, Clock::time_point at,
              DocBoard* board) {
    wire::PayloadReader reader(frame.payload);
    switch (frame.type) {
      case wire::FrameType::kMatch: {
        const uint32_t sub = reader.ReadU32();
        const uint64_t doc = reader.ReadU64();
        reader.ReadU64();  // ordinal
        if (!reader.Done()) return board->Fail("malformed MATCH frame");
        auto it = earliest_.find(sub);
        board->OnMatch(index_, doc, sub, it != earliest_.end() && it->second,
                       at);
        return;
      }
      case wire::FrameType::kDocDone: {
        const uint64_t doc = reader.ReadU64();
        const uint32_t n = reader.ReadU32();
        std::vector<std::pair<uint32_t, bool>> verdicts;
        verdicts.reserve(std::min<size_t>(n, frame.payload.size() / 5));
        for (uint32_t i = 0; i < n && reader.ok(); ++i) {
          const uint32_t sub = reader.ReadU32();
          verdicts.emplace_back(sub, reader.ReadU8() != 0);
        }
        if (!reader.Done()) return board->Fail("malformed DOC_DONE frame");
        board->OnDocDone(index_, doc, std::move(verdicts), at);
        return;
      }
      case wire::FrameType::kStatsOk: {
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          stats_ = frame.payload;
        }
        stats_cv_.notify_all();
        return;
      }
      case wire::FrameType::kError:
        return board->Fail("ERROR on a subscriber connection: " +
                           wire::DecodeError(frame.payload).ToString());
      default:
        return board->Fail("unexpected frame on a subscriber connection");
    }
  }

  const int fd_;
  const size_t index_;
  wire::FrameDecoder decoder_{kMaxPushFrameBytes};
  std::unordered_map<uint32_t, bool> earliest_;  // wire id -> kEarliest
  std::atomic<bool> stop_{false};
  std::mutex stats_mu_;
  std::condition_variable stats_cv_;
  std::optional<std::string> stats_;  // guarded by stats_mu_
  std::thread reader_;  // declared last: joined before the rest goes
};

// --- the running service -----------------------------------------------

/// Everything one set-up creates: the server process and its
/// connections. Members are destroyed bottom-up, so every connection
/// closes before the server is stopped.
struct Stack {
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<Client>> publishers;
  std::vector<std::unique_ptr<SubscriberConn>> subscribers;
  std::unique_ptr<Client> control;
  /// Per subscriber connection: wire id -> index into Workload::queries.
  std::vector<std::unordered_map<uint32_t, size_t>> query_of;
};

/// Spawn to listening, connecting, and registering every subscription:
/// the span setup_s measures.
Result<std::unique_ptr<Stack>> SetUp(const Workload& w,
                                     const std::string& binary) {
  auto stack = std::make_unique<Stack>();
  auto server = ServerProcess::Spawn(binary, w);
  if (!server.ok()) return server.status();
  stack->server = std::move(server).value();
  const uint16_t port = stack->server->port();
  for (size_t p = 0; p < w.publishers; ++p) {
    auto client = Client::Connect("127.0.0.1", port, kReplyTimeoutMs);
    if (!client.ok()) return client.status();
    stack->publishers.push_back(std::move(client).value());
  }
  for (size_t c = 0; c < w.subscriber_conns; ++c) {
    auto fd = ConnectLoopback(port);
    if (!fd.ok()) return fd.status();
    stack->subscribers.push_back(std::make_unique<SubscriberConn>(*fd, c));
    stack->query_of.emplace_back();
    for (size_t q = 0; q < w.queries.size(); ++q) {
      auto id = stack->subscribers.back()->Subscribe(w.queries[q]);
      if (!id.ok()) {
        return Status::Internal("SUBSCRIBE " + w.queries[q].xpath + ": " +
                                id.status().ToString());
      }
      stack->query_of.back()[*id] = q;
    }
  }
  auto control = Client::Connect("127.0.0.1", port, kReplyTimeoutMs);
  if (!control.ok()) return control.status();
  stack->control = std::move(control).value();
  return stack;
}

/// Serial server only: keeps control pairs between documents, because
/// a serial engine refuses subscription changes mid-document.
class BoundaryGate {
 public:
  void DocBegin() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !control_waiting_; });
    ++docs_open_;
  }
  void DocEnd() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --docs_open_;
    }
    cv_.notify_all();
  }
  void ControlBegin() {
    std::unique_lock<std::mutex> lock(mu_);
    control_waiting_ = true;
    cv_.wait(lock, [&] { return docs_open_ == 0; });
  }
  void ControlEnd() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      control_waiting_ = false;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t docs_open_ = 0;          // guarded by mu_
  bool control_waiting_ = false;  // guarded by mu_
};

enum Phase : int { kWarmup, kMeasured, kTraced, kDone };

/// Runs the phases over one set-up stack: publisher threads, subscriber
/// reader threads, and the control pairs on the calling thread.
class TripRunner {
 public:
  TripRunner(const Workload& w, Stack* stack, const TripOptions& options)
      : w_(w),
        stack_(*stack),
        options_(options),
        board_(w.subscriber_conns),
        gated_(w.pipeline_workers == 1) {}

  void Run(TripResult* result) {
    for (auto& sub : stack_.subscribers) sub->Start(&board_);
    std::vector<std::thread> publishers;
    for (size_t p = 0; p < w_.publishers; ++p) {
      publishers.emplace_back([this, p] { Publish(p); });
    }
    RunPhase(kWarmup, kWarmupSeconds);
    RunPhase(kMeasured, options_.measure_s);
    if (options_.traced_s > 0) RunPhase(kTraced, options_.traced_s);
    phase_ = kDone;
    stop_ = true;
    for (std::thread& publisher : publishers) publisher.join();

    ScrapeStats(result);
    result->server_peak_rss_mb = stack_.server->PeakRssMb();
    for (auto& sub : stack_.subscribers) sub->Stop();
    for (std::string& why : board_.failures()) Log(std::move(why));

    result->measured = std::move(measured_);
    result->traced = std::move(traced_);
    result->attempted += attempted_;
    result->failed += failed_;
    for (std::string& error : errors_) result->errors.push_back(error);
  }

 private:
  PhaseSamples* SamplesFor(int phase) {
    if (phase == kMeasured) return &measured_;
    if (phase == kTraced) return &traced_;
    return nullptr;
  }

  void RunPhase(Phase phase, double seconds) {
    const Clock::time_point start = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (PhaseSamples* samples = SamplesFor(phase)) samples->start = start;
    }
    phase_ = phase;
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    Clock::time_point next_pair = start + kControlInterval;
    while (!stop_ && Clock::now() < end) {
      std::this_thread::sleep_until(std::min(next_pair, end));
      const Clock::time_point now = Clock::now();
      if (stop_ || now < next_pair) continue;
      ControlPair();
      while (next_pair <= Clock::now()) next_pair += kControlInterval;
    }
  }

  void Publish(size_t p) {
    Client& client = *stack_.publishers[p];
    for (uint64_t seq = p; !stop_; seq += w_.publishers) {
      const size_t content = seq % w_.docs.size();
      const std::string_view xml = w_.docs[content];
      if (gated_) gate_.DocBegin();
      const int phase = phase_;
      Tracer* tracer = phase == kTraced ? options_.tracer : nullptr;
      const int64_t doc = static_cast<int64_t>(seq);
      const Clock::time_point start = Clock::now();
      const int64_t trip =
          tracer != nullptr ? tracer->Open("trip", start, -1, doc) : -1;
      Status status;
      for (size_t at = 0; at < xml.size() && status.ok();
           at += w_.chunk_bytes) {
        status = Traced(tracer, "client.feed", trip, doc, [&] {
          return client.Feed(xml.substr(at, w_.chunk_bytes));
        });
      }
      Result<uint64_t> index = status;
      if (status.ok()) {
        index = Traced(tracer, "client.finish", trip, doc,
                       [&] { return client.FinishDocument(); });
      }
      std::optional<Arrivals> arrivals;
      if (index.ok()) {
        arrivals = Traced(tracer, "await.doc_done", trip, doc, [&] {
          return board_.Await(*index, kDocDoneTimeout);
        });
      }
      if (tracer != nullptr) tracer->Close(trip, Clock::now());
      if (gated_) gate_.DocEnd();

      std::string error;
      if (!index.ok()) {
        error = StringPrintf("document %zu: ", content) +
                index.status().ToString();
      } else if (!arrivals) {
        error = StringPrintf(
            "document %zu: DOC_DONE missing on a subscriber connection",
            content);
      } else {
        error = Verify(content, *arrivals);
      }
      const Clock::time_point checked = Clock::now();
      std::lock_guard<std::mutex> lock(mu_);
      ++attempted_;
      if (!error.empty()) {
        FailLocked(std::move(error));
        return;
      }
      if (PhaseSamples* samples = SamplesFor(phase)) {
        const double at = Seconds(start - samples->start);
        ++samples->docs;
        samples->push_frames += arrivals->push_frames;
        samples->cycle_us.push_back({at, Micros(checked - start)});
        samples->latency_us.push_back(
            {at, Micros(arrivals->last_done - start)});
        if (arrivals->earliest_matched) {
          samples->first_match_us.push_back(
              {at, Micros(arrivals->first_match - start)});
        }
      }
    }
  }

  /// Checks every subscriber connection's DOC_DONE and MATCH frames of
  /// one document against the reference verdicts; "" when they agree.
  std::string Verify(size_t content, const Arrivals& arrivals) const {
    const std::vector<bool>& want = w_.expected[content];
    for (size_t c = 0; c < arrivals.verdicts.size(); ++c) {
      const auto& got = arrivals.verdicts[c];
      const auto& query_of = stack_.query_of[c];
      if (got.size() != want.size()) {
        return StringPrintf("document %zu: DOC_DONE has %zu verdicts, not %zu",
                            content, got.size(), want.size());
      }
      size_t hits = 0;
      for (const auto& [sub, hit] : got) {
        auto it = query_of.find(sub);
        if (it == query_of.end()) {
          return StringPrintf("document %zu: DOC_DONE names unknown id %u",
                              content, sub);
        }
        if (hit != want[it->second]) {
          return StringPrintf(
              "document %zu: verdict %d for %s, reference says %d", content,
              hit ? 1 : 0, w_.queries[it->second].xpath.c_str(),
              want[it->second] ? 1 : 0);
        }
        hits += hit ? 1 : 0;
      }
      for (uint32_t sub : arrivals.matched[c]) {
        auto it = query_of.find(sub);
        if (it == query_of.end() || !want[it->second]) {
          return StringPrintf("document %zu: MATCH for non-matching id %u",
                              content, sub);
        }
      }
      if (arrivals.matched[c].size() != hits) {
        return StringPrintf("document %zu: %zu MATCH frames for %zu matches",
                            content, arrivals.matched[c].size(), hits);
      }
    }
    return "";
  }

  /// One SUBSCRIBE/UNSUBSCRIBE pair on the control connection, cycling
  /// through the workload's queries (each already subscribed, so the
  /// pair never grows the set of evaluation slots).
  void ControlPair() {
    Client& control = *stack_.control;
    const QuerySpec& query = w_.queries[pairs_++ % w_.queries.size()];
    if (gated_) gate_.ControlBegin();
    const int phase = phase_;
    const Clock::time_point start = Clock::now();
    auto id = control.Subscribe(query.xpath, query.mode);
    const Status status = id.ok() ? control.Unsubscribe(*id) : id.status();
    const Clock::time_point end = Clock::now();
    if (gated_) gate_.ControlEnd();
    control.TakeEvents();  // pushes for the pair's own subscription

    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (!status.ok()) {
      FailLocked("control pair: " + status.ToString());
      return;
    }
    if (PhaseSamples* samples = SamplesFor(phase)) {
      samples->subscribe_us.push_back(
          {Seconds(start - samples->start), Micros(end - start)});
    }
  }

  void ScrapeStats(TripResult* result) {
    auto text = Traced(options_.tracer, "stats.scrape", -1, -1,
                       [&] { return stack_.control->Stats(); });
    double dropped = 0;
    bool ok = text.ok();
    if (ok) result->stats = ParseStats(*text);
    for (auto& sub : stack_.subscribers) {
      auto own = sub->Stats();
      ok = ok && own.ok();
      if (own.ok()) dropped += ParseStats(*own)["dropped_frames"];
    }
    result->stats["dropped_frames"] = dropped;
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (!ok) FailLocked("STATS scrape failed");
  }

  void FailLocked(std::string why) {
    ++failed_;
    stop_ = true;
    if (errors_.size() < kMaxLoggedErrors) errors_.push_back(std::move(why));
  }

  void Log(std::string why) {
    std::lock_guard<std::mutex> lock(mu_);
    if (errors_.size() < kMaxLoggedErrors) errors_.push_back(std::move(why));
  }

  const Workload& w_;
  Stack& stack_;
  const TripOptions& options_;
  DocBoard board_;
  BoundaryGate gate_;
  const bool gated_;
  std::atomic<int> phase_{kWarmup};
  std::atomic<bool> stop_{false};
  uint64_t pairs_ = 0;  // control thread only

  std::mutex mu_;
  PhaseSamples measured_;          // guarded by mu_
  PhaseSamples traced_;            // guarded by mu_
  uint64_t attempted_ = 0;         // guarded by mu_
  uint64_t failed_ = 0;            // guarded by mu_
  std::vector<std::string> errors_;  // guarded by mu_
};

}  // namespace

TripResult RunTrip(const Workload& w, const TripOptions& options) {
  TripResult result;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();  // stop the previous server outside the timed span
    const Clock::time_point start = Clock::now();
    auto made = SetUp(w, options.server_binary);
    if (!made.ok()) {
      result.attempted = result.failed = 1;
      result.errors.push_back("set-up: " + made.status().ToString());
      return result;
    }
    result.setup_s.push_back(Seconds(Clock::now() - start));
    stack = std::move(made).value();
  }
  TripRunner runner(w, stack.get(), options);
  runner.Run(&result);
  return result;
}

}  // namespace tripbench
