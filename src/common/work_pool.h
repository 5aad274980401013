/**
 * @file
 * The simulator's one thread pool: run independent tasks on workers
 * that pull indexes off a shared cursor.
 *
 * Both parallel drivers are this loop — a sweep runs one experiment
 * per task, an experiment runs one shard to its horizon per task.
 * Which worker runs which index is a race, so a task must write only
 * state its index owns; determinism then lives in where results are
 * stored, not in the schedule.
 */
#ifndef DILU_COMMON_WORK_POOL_H_
#define DILU_COMMON_WORK_POOL_H_

#include <cstddef>
#include <functional>

namespace dilu {

/**
 * Run `task(i)` exactly once for every i in [0, n) on `threads`
 * workers (clamped to [1, n]) and return once every task finished;
 * everything a task wrote happens-before the return. With one worker
 * every task runs inline on the calling thread, in index order. If a
 * task throws, no further index is handed out and the first exception
 * is rethrown once every worker stopped.
 */
void ParallelFor(std::size_t n, int threads,
                 const std::function<void(std::size_t)>& task);

}  // namespace dilu

#endif  // DILU_COMMON_WORK_POOL_H_
