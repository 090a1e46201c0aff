#include "xml/arena.h"

#include <algorithm>

namespace xpstream {

void Arena::Reset() {
  active_ = 0;
  if (blocks_.empty()) {
    cursor_ = nullptr;
    remaining_ = 0;
    return;
  }
  cursor_ = blocks_[0].data.get();
  remaining_ = blocks_[0].size;
}

char* Arena::AllocSlow(size_t n) {
  // Advance through retained blocks until one fits; oversized requests
  // get a dedicated block so a huge token cannot force doubling forever.
  while (active_ + 1 < blocks_.size()) {
    ++active_;
    if (blocks_[active_].size >= n) {
      cursor_ = blocks_[active_].data.get() + n;
      remaining_ = blocks_[active_].size - n;
      return blocks_[active_].data.get();
    }
  }
  size_t size = blocks_.empty() ? kMinBlockBytes
                                : std::min(blocks_.back().size * 2,
                                           kMaxBlockBytes);
  size = std::max(size, n);
  Block block;
  block.data.reset(new char[size]);
  block.size = size;
  footprint_ += size;
  blocks_.push_back(std::move(block));
  active_ = blocks_.size() - 1;
  cursor_ = blocks_[active_].data.get() + n;
  remaining_ = blocks_[active_].size - n;
  return blocks_[active_].data.get();
}

}  // namespace xpstream
