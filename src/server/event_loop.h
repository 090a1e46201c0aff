#ifndef XPSTREAM_SERVER_EVENT_LOOP_H_
#define XPSTREAM_SERVER_EVENT_LOOP_H_

/// \file
/// A minimal poll(2) reactor for the dissemination server: one thread,
/// non-blocking fds, a self-wake pipe for cross-thread stop requests.
///
/// Interest is *pulled*, not registered: each entry supplies an
/// InterestFn returning the POLLIN/POLLOUT mask it currently wants, and
/// the loop re-queries every iteration. That makes backpressure a pure
/// predicate on connection state (outbox full => no POLLIN) instead of
/// bookkeeping that can go stale.
///
/// Reentrancy: handlers run on the loop thread and may Add() new
/// entries or Remove() any entry — including their own — during
/// dispatch; removal is deferred to the end of the dispatch round, so
/// the handler object currently executing is never destroyed under
/// itself. Run()/Add()/Remove() are loop-thread-only; RequestStop() is
/// safe from any thread.

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include <poll.h>

#include "common/status.h"

namespace xpstream {

/// Marks `fd` non-blocking (O_NONBLOCK).
Status SetNonBlocking(int fd);

class EventLoop {
 public:
  /// Receives the revents mask poll() reported for the fd.
  using Handler = std::function<void(short)>;
  /// Returns the events the fd currently cares about (POLLIN | POLLOUT
  /// subset); 0 parks the fd for this iteration.
  using InterestFn = std::function<short()>;

  /// Creates the loop and its wake pipe.
  static Result<std::unique_ptr<EventLoop>> Create();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd`. The loop does not own the fd; the caller closes it
  /// after Remove(). Re-adding a registered fd replaces its entry.
  void Add(int fd, InterestFn interest, Handler handler);

  /// Unregisters `fd`; deferred until the current dispatch round ends,
  /// so it is safe from inside any handler.
  void Remove(int fd);

  /// Installs a periodic callback run on the loop thread roughly every
  /// `interval_ms` (after the dispatch round in which it came due) —
  /// the loop polls with a finite timeout so the tick fires even while
  /// every fd is silent. One tick per loop; set before Run().
  void SetTick(std::function<void()> tick, int interval_ms);

  /// Dispatches until RequestStop(). Call from the loop thread.
  void Run();

  /// Asks Run() to return after the current iteration. Thread-safe and
  /// idempotent.
  void RequestStop();

  /// Queues `fn` to run on the loop thread (after the fd dispatch of
  /// the iteration that picks it up) and wakes the loop. Thread-safe;
  /// callbacks run in post order. This is how pool worker threads hand
  /// results to the loop thread without touching session state
  /// themselves. Callbacks posted before Run() returns are executed or
  /// discarded with the loop — they must not assume they run.
  void Post(std::function<void()> fn);

  /// Installs a callback run on the loop thread after each batch of
  /// posted callbacks (once per iteration that ran any), so work the
  /// batch produced is finished once for the whole batch. Set before
  /// Run().
  void SetAfterPosted(std::function<void()> after_posted);

 private:
  EventLoop(int wake_read_fd, int wake_write_fd);

  struct Entry {
    InterestFn interest;
    Handler handler;
    bool dead = false;
  };

  const int wake_read_fd_;
  const int wake_write_fd_;
  std::map<int, Entry> entries_;
  std::function<void()> tick_;
  std::function<void()> after_posted_;
  int tick_interval_ms_ = -1;  // -1: no tick; poll blocks indefinitely
  bool stop_ = false;  // loop thread only; cross-thread stop via the pipe

  std::mutex post_mutex_;  // guards posted_ (the only cross-thread state)
  std::vector<std::function<void()>> posted_;
};

}  // namespace xpstream

#endif  // XPSTREAM_SERVER_EVENT_LOOP_H_
