#include "common/work_pool.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace dilu {

void
ParallelFor(std::size_t n, int threads,
            const std::function<void(std::size_t)>& task)
{
  std::mutex mu;
  std::size_t next = 0;        // guarded by mu
  std::exception_ptr failure;  // first task exception; guarded by mu
  const auto pull = [&] {
    for (;;) {
      std::size_t i = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (next >= n || failure) return;
        i = next++;
      }
      // An exception must not escape a worker's entry function; the
      // first one stops the hand-out and is rethrown to the caller.
      try {
        task(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!failure) failure = std::current_exception();
      }
    }
  };

  // The caller is one of the workers, so one worker spawns nothing.
  const std::size_t workers =
      std::min(n, static_cast<std::size_t>(std::max(1, threads)));
  std::vector<std::thread> pool;
  for (std::size_t w = 1; w < workers; ++w) {
    try {
      pool.emplace_back(pull);
    } catch (const std::system_error&) {
      break;  // fewer workers still finish every task
    }
  }
  pull();
  for (std::thread& t : pool) t.join();
  if (failure) std::rethrow_exception(failure);
}

}  // namespace dilu
