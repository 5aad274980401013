#include "runtime/batcher.h"

#include <algorithm>

#include "common/logging.h"

namespace dilu::runtime {

void
Batcher::Push(workload::Request* req)
{
  DILU_CHECK(req != nullptr);
  if (size_ == ring_.size()) {
    // Full: unwrap into arrival order, then double.
    std::rotate(ring_.begin(),
                ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                ring_.end());
    ring_.resize(std::max<std::size_t>(8, 2 * ring_.size()));
    head_ = 0;
  }
  ring_[(head_ + size_) & (ring_.size() - 1)] = req;
  ++size_;
}

void
Batcher::PopBatch(int max_batch, std::vector<workload::Request*>* out)
{
  DILU_CHECK(out != nullptr);
  for (int n = 0; size_ > 0 && n < max_batch; ++n) {
    out->push_back(ring_[head_]);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
  }
}

TimeUs
Batcher::OldestArrival() const
{
  return size_ == 0 ? -1 : ring_[head_]->arrival;
}

}  // namespace dilu::runtime
