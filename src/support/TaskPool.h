//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded worker pool for the certification fan-out: the independent
/// units (client methods) of one ladder rung run concurrently,
/// while the supervisor, report merging, and everything the tasks
/// observe stays deterministic:
///
///  - tasks are indexed; each task writes only its own result slot, and
///    the caller merges slots in index order, never completion order;
///  - when any tasks throw, the exception of the LOWEST-indexed failed
///    task is rethrown after every worker has drained — so "which error
///    wins" does not depend on thread scheduling;
///  - a pool with one worker (or one task) runs inline on the calling
///    thread, making the serial and parallel paths byte-identical by
///    construction.
///
/// Worker threads are spawned lazily on the first parallel runAll() and
/// PERSIST across runAll() calls until the pool is destroyed: a
/// certification run fans out once per ladder rung (and the supervisor
/// may walk several rungs), and re-spawning / re-joining a thread set
/// per rung was a measurable fixed cost on small methods. Between
/// batches the workers block on a condition variable, so engines below
/// the pool never observe concurrency outside an active fan-out.
///
/// runAll() is not reentrant and must be called from one thread at a
/// time (the certifier's supervisor is the only caller).
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_SUPPORT_TASKPOOL_H
#define CANVAS_SUPPORT_TASKPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace canvas {
namespace support {

class TaskPool {
public:
  /// \p Workers bounds concurrency; 0 means hardware_concurrency().
  explicit TaskPool(unsigned Workers = 0);

  /// Wakes and joins any persistent workers. Must not run concurrently
  /// with runAll().
  ~TaskPool();

  TaskPool(const TaskPool &) = delete;
  TaskPool &operator=(const TaskPool &) = delete;

  /// The effective worker bound (never 0).
  unsigned workers() const { return NumWorkers; }

  /// Runs every task to completion and returns. Tasks run concurrently
  /// on up to workers() threads (inline when 1). If tasks threw, the
  /// lowest-indexed task's exception is rethrown once all workers have
  /// drained; the other exceptions are dropped.
  void runAll(const std::vector<std::function<void()>> &Tasks);

private:
  void workerLoop();
  /// Claims and runs batch tasks until the index counter is exhausted.
  void workOn(const std::vector<std::function<void()>> &Tasks,
              std::vector<std::exception_ptr> &Errors);

  unsigned NumWorkers;
  std::vector<std::thread> Threads;

  std::mutex M;
  std::condition_variable BatchCV; ///< Workers: a batch was published.
  std::condition_variable DoneCV;  ///< Caller: batch fully drained.

  // Batch state, guarded by M (the pointers) or atomic (the counters).
  const std::vector<std::function<void()>> *Batch = nullptr;
  std::vector<std::exception_ptr> *BatchErrors = nullptr;
  uint64_t Generation = 0; ///< Bumped per published batch.
  size_t Busy = 0;         ///< Workers currently inside workOn().
  bool ShuttingDown = false;
  std::atomic<size_t> Next{0};      ///< Next unclaimed task index.
  std::atomic<size_t> Completed{0}; ///< Tasks finished this batch.
};

} // namespace support
} // namespace canvas

#endif // CANVAS_SUPPORT_TASKPOOL_H
