#ifndef XPSTREAM_SERVER_EVENT_LOOP_H_
#define XPSTREAM_SERVER_EVENT_LOOP_H_

/// \file
/// A minimal poll(2) reactor for the dissemination server: one thread,
/// non-blocking fds, a self-wake pipe for cross-thread wakes and stop
/// requests.
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
/// itself. Run()/Add()/Remove() are loop-thread-only; Wake() and
/// RequestStop() are safe from any thread.

#include <chrono>
#include <functional>
#include <map>
#include <memory>

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

  /// Wakes the loop with one byte on the pipe: the iteration that reads
  /// it runs the wake handler once, after its fd dispatch, however many
  /// wakes it read. Thread-safe. A wake still unread when Run()
  /// returns is dropped with the loop.
  ///
  /// The loop carries no data across threads: a producer keeps its own
  /// queue, and the handler drains it. The pipelined server shows the
  /// pattern: pool workers append plain records to one mailbox under a
  /// mutex, and only the record that finds it empty wakes the loop, so
  /// the loop wakes once per transition from empty to non-empty and
  /// routes the whole batch. Its DOC_DONE routing table is rebuilt only
  /// when the subscriptions or their owners change (see server.cc).
  void Wake();

  /// Installs the callback Wake() schedules on the loop thread. Set
  /// before Run().
  void SetWakeHandler(std::function<void()> on_wake);

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
  std::function<void()> on_wake_;
  int tick_interval_ms_ = -1;  // -1: no tick; poll blocks indefinitely
  bool stop_ = false;  // loop thread only; cross-thread stop via the pipe
};

}  // namespace xpstream

#endif  // XPSTREAM_SERVER_EVENT_LOOP_H_
