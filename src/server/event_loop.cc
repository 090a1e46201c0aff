#include "server/event_loop.h"

#include <cerrno>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

namespace xpstream {

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal("fcntl(O_NONBLOCK) failed: errno " +
                            std::to_string(errno));
  }
  return Status::OK();
}

Result<std::unique_ptr<EventLoop>> EventLoop::Create() {
  int fds[2];
  if (::pipe(fds) != 0) {
    return Status::Internal("pipe() failed: errno " + std::to_string(errno));
  }
  // Both ends non-blocking: a wake while the pipe is full is still a
  // wake (the loop drains it wholesale), and the drain must not block.
  for (int fd : fds) {
    Status status = SetNonBlocking(fd);
    if (!status.ok()) {
      ::close(fds[0]);
      ::close(fds[1]);
      return status;
    }
  }
  return std::unique_ptr<EventLoop>(new EventLoop(fds[0], fds[1]));
}

EventLoop::EventLoop(int wake_read_fd, int wake_write_fd)
    : wake_read_fd_(wake_read_fd), wake_write_fd_(wake_write_fd) {}

EventLoop::~EventLoop() {
  ::close(wake_read_fd_);
  ::close(wake_write_fd_);
}

void EventLoop::Add(int fd, InterestFn interest, Handler handler) {
  entries_[fd] = Entry{std::move(interest), std::move(handler), false};
}

void EventLoop::Remove(int fd) {
  auto it = entries_.find(fd);
  if (it != entries_.end()) it->second.dead = true;
}

void EventLoop::SetTick(std::function<void()> tick, int interval_ms) {
  tick_ = std::move(tick);
  tick_interval_ms_ = interval_ms > 0 ? interval_ms : -1;
}

void EventLoop::SetWakeHandler(std::function<void()> on_wake) {
  on_wake_ = std::move(on_wake);
}

void EventLoop::RequestStop() {
  // The pipe is the only cross-thread channel: the loop thread owns
  // stop_ and flips it when it drains the wake byte, so no flag is
  // shared between threads.
  const char byte = 'q';
  [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
  // A full pipe still wakes the loop; a closed loop no longer cares.
}

void EventLoop::Wake() {
  // Any non-'q' byte wakes the loop without stopping it. A full pipe is
  // fine: its unread bytes wake the loop anyway.
  const char byte = 'w';
  [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void EventLoop::Run() {
  std::vector<pollfd> pollfds;
  std::vector<int> ready;
  auto last_tick = std::chrono::steady_clock::now();
  while (!stop_) {
    // Reap entries removed during the previous dispatch round.
    for (auto it = entries_.begin(); it != entries_.end();) {
      it = it->second.dead ? entries_.erase(it) : std::next(it);
    }

    pollfds.clear();
    pollfds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
    for (const auto& [fd, entry] : entries_) {
      const short events = entry.interest();
      if (events != 0) pollfds.push_back(pollfd{fd, events, 0});
    }

    const int n = ::poll(pollfds.data(), static_cast<nfds_t>(pollfds.size()),
                         tick_ ? tick_interval_ms_ : -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // unrecoverable poll failure; the owner tears down
    }

    bool woken = false;
    if ((pollfds[0].revents & POLLIN) != 0) {
      char buffer[64];
      ssize_t got;
      while ((got = ::read(wake_read_fd_, buffer, sizeof buffer)) > 0) {
        for (ssize_t i = 0; i < got; ++i) {
          stop_ |= buffer[i] == 'q';
          woken |= buffer[i] != 'q';
        }
      }
    }

    // Dispatch over a snapshot: handlers may Add() (rehash-free map,
    // but iterator discipline is simpler this way) or Remove() anything.
    ready.clear();
    for (size_t i = 1; i < pollfds.size(); ++i) {
      if (pollfds[i].revents != 0) ready.push_back(static_cast<int>(i));
    }
    for (int i : ready) {
      auto it = entries_.find(pollfds[static_cast<size_t>(i)].fd);
      if (it == entries_.end() || it->second.dead) continue;
      it->second.handler(pollfds[static_cast<size_t>(i)].revents);
    }

    // The wake handler runs after fd dispatch. A Wake() after the read
    // above leaves its byte in the pipe, so the next poll returns at
    // once and no wake is lost.
    if (woken && on_wake_) on_wake_();

    // The tick runs after dispatch so I/O progress handlers just made
    // (activity timestamps, reaps) is visible to it.
    if (tick_) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_tick >=
          std::chrono::milliseconds(tick_interval_ms_)) {
        last_tick = now;
        tick_();
      }
    }
  }
  stop_ = false;  // allow a future Run() after a stop
}

}  // namespace xpstream
