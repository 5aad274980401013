/**
 * @file
 * Request batching queue for inference instances.
 *
 * Dilu (like INFless and BATCH) executes inference in batches; the
 * profiler picks the inference batch size (IBS) and the runtime greedily
 * forms batches up to IBS from the pending queue whenever the GPU is
 * free. Greedy formation keeps latency low at light load (batch of 1)
 * and reaches IBS under pressure.
 */
#ifndef DILU_RUNTIME_BATCHER_H_
#define DILU_RUNTIME_BATCHER_H_

#include <cstddef>
#include <vector>

#include "workload/request.h"

namespace dilu::runtime {

/** FIFO queue of pending requests with batch extraction. */
class Batcher {
 public:
  /** Append a request (called at dispatch time). */
  void Push(workload::Request* req);

  /**
   * Move up to `max_batch` requests, in arrival order, onto the end of
   * `*out` (a caller-owned vector, reused across batches).
   */
  void PopBatch(int max_batch, std::vector<workload::Request*>* out);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /** Oldest queued arrival time, or -1 when empty. */
  TimeUs OldestArrival() const;

 private:
  /** FIFO ring over a power-of-two buffer that only grows: a queue
   *  below its high-water mark never allocates (a std::deque allocates
   *  a block every 64 pushes). */
  std::vector<workload::Request*> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dilu::runtime

#endif  // DILU_RUNTIME_BATCHER_H_
