#include "trace.h"

#include <cstdio>
#include <map>

namespace tripbench {

Tracer::Tracer(size_t per_name_capacity)
    : origin_(Clock::now()), per_name_capacity_(per_name_capacity) {}

int64_t Tracer::Nanos(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int64_t Tracer::Open(const char* name, Clock::time_point start,
                     int64_t parent, int64_t doc) {
  return Record(name, start, start, parent, doc);
}

void Tracer::Close(int64_t index, Clock::time_point end) {
  if (index < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = Nanos(end);
}

int64_t Tracer::Record(const char* name, Clock::time_point start,
                       Clock::time_point end, int64_t parent, int64_t doc) {
  const Span span{name, Nanos(start), Nanos(end), parent, doc};
  std::lock_guard<std::mutex> lock(mu_);
  size_t& kept = per_name_[name];
  if (kept >= per_name_capacity_) {
    ++dropped_;
    return -1;
  }
  ++kept;
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size() - 1);
}

std::vector<SelfTime> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> covered(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      covered[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::vector<std::string> order;
  std::map<std::string, std::vector<double>> self_us;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto [it, inserted] = self_us.try_emplace(span.name);
    if (inserted) order.push_back(span.name);
    it->second.push_back(
        static_cast<double>(span.end_ns - span.start_ns - covered[i]) / 1e3);
  }
  std::vector<SelfTime> out;
  for (const std::string& name : order) {
    const std::vector<double>& values = self_us[name];
    out.push_back(SelfTime{name, values.size(), Median(values), Mean(values)});
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"doc\":%lld}\n",
                 i, span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.parent),
                 static_cast<long long>(span.doc));
  }
  return std::fclose(file) == 0;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

size_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

}  // namespace tripbench
