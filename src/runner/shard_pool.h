// ShardPool: a persistent fork-join worker pool for sharded campus runs.
//
// A Campus hands over its one-task-per-domain vector at every chunk — one per
// send instant, dozens per simulated day — so spawning threads per chunk
// would dominate the runtime. ShardPool keeps its workers parked on a condition variable and
// republishes the task vector each round, so a barrier costs two lock
// handoffs instead of N thread creations.
//
// run() has barrier semantics: every task executes exactly once and run()
// returns only after the last one finished. The calling thread participates
// as one of the shards, so ShardPool(n) uses exactly n threads of
// concurrency and ShardPool(1) degenerates to the plain sequential loop —
// which is what makes the shard-invariance gate meaningful: 1, 2, and 4
// shards run the identical task set, only the interleaving differs.
//
// Tasks claimed from the shared vector mutate disjoint domains; the claim
// index, completion count, and generation counter are the only shared state
// and every one of them is SMN_GUARDED_BY the pool mutex, machine-checked by
// the clang -Werror=thread-safety build and raced under the TSan CI matrix.
#pragma once

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace smn::runner {

class ShardPool {
 public:
  using Task = std::function<void()>;

  /// `shards` is the total concurrency including the calling thread; values
  /// below 1 are clamped to 1 (no worker threads, pure inline execution).
  explicit ShardPool(int shards);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  [[nodiscard]] int shards() const { return shards_; }

  /// Runs every task exactly once and returns after all completed. Tasks may
  /// run on any participating thread in any order; callers own making that
  /// order-insensitive (Campus does, by construction). Not reentrant.
  void run(std::vector<Task>& tasks);

  /// Adapter with the scenario::Campus::Executor signature.
  [[nodiscard]] std::function<void(std::vector<Task>&)> executor() {
    return [this](std::vector<Task>& tasks) { run(tasks); };
  }

 private:
  void worker_loop();
  /// Claims and runs tasks of `generation` until the vector is exhausted.
  void drain_tasks(std::uint64_t generation);

  const int shards_;
  mutable core::Mutex mu_;
  core::CondVar work_ready_;
  core::CondVar work_done_;
  std::vector<Task>* tasks_ SMN_GUARDED_BY(mu_) = nullptr;
  std::size_t next_ SMN_GUARDED_BY(mu_) = 0;
  std::size_t done_ SMN_GUARDED_BY(mu_) = 0;
  std::uint64_t generation_ SMN_GUARDED_BY(mu_) = 0;
  bool stop_ SMN_GUARDED_BY(mu_) = false;
  std::vector<std::jthread> workers_;
};

}  // namespace smn::runner
