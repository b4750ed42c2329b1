#include "core/jobs.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace streamlab {
namespace {

/// True on a thread while it runs a job, so a nested run_jobs runs inline.
thread_local bool t_in_job = false;

}  // namespace

std::size_t job_workers(std::size_t requested, std::size_t jobs) {
  if (t_in_job) return 1;
  std::size_t n = requested;
  if (n == 0) n = std::thread::hardware_concurrency();  // may be unknowable: 0
  return std::clamp<std::size_t>(n, 1, std::max<std::size_t>(jobs, 1));
}

std::size_t run_jobs(std::size_t jobs, std::size_t workers,
                     FunctionRef<void(std::size_t job, std::size_t runner)> run,
                     FunctionRef<void(std::size_t job)> commit,
                     const std::atomic<bool>* cancel) {
  workers = job_workers(workers, jobs);

  struct Slot {
    bool done = false;
    std::exception_ptr error;
  };
  std::mutex mu;  // guards slots and spawned_alive
  std::vector<Slot> slots(jobs);
  std::size_t spawned_alive = workers - 1;
  std::condition_variable job_done;
  std::atomic<std::size_t> next_claim{0};
  // Set when a job throws or the commit loop leaves early, so runners stop
  // claiming and can be joined before the state they share unwinds.
  std::atomic<bool> abandoned{false};

  const auto stopped = [&] {
    return abandoned.load(std::memory_order_relaxed) ||
           (cancel != nullptr && cancel->load(std::memory_order_relaxed));
  };
  // Claims and runs the next job; false once none is left to claim.
  const auto run_next = [&](std::size_t runner) {
    const std::size_t k = next_claim.fetch_add(1, std::memory_order_relaxed);
    if (k >= jobs) return false;
    std::exception_ptr error;
    const bool outer = std::exchange(t_in_job, true);
    try {
      run(k, runner);
    } catch (...) {
      error = std::current_exception();
    }
    t_in_job = outer;
    if (error) abandoned.store(true, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu);
      slots[k].done = true;
      slots[k].error = std::move(error);
    }
    job_done.notify_all();
    return true;
  };
  const auto runner = [&](std::size_t id) {
    while (!stopped() && run_next(id)) {
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      --spawned_alive;
    }
    // The commit loop's stop predicate watches spawned_alive.
    job_done.notify_all();
  };
  // Waits for job i, running unclaimed jobs on this thread meanwhile. False
  // when the pool stopped and every spawned runner parked with job i never
  // run; rethrows job i's exception.
  const auto await_job = [&](std::size_t i) {
    std::unique_lock<std::mutex> lock(mu);
    while (!slots[i].done) {
      lock.unlock();
      const bool ran = !stopped() && run_next(0);
      lock.lock();
      if (ran) continue;
      job_done.wait(lock, [&] { return slots[i].done || (stopped() && spawned_alive == 0); });
      if (!slots[i].done) return false;
    }
    if (slots[i].error) std::rethrow_exception(slots[i].error);
    return true;
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  std::size_t committed = 0;
  try {
    for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(runner, w);
    for (; committed < jobs && await_job(committed); ++committed) commit(committed);
  } catch (...) {
    abandoned.store(true, std::memory_order_relaxed);
    for (std::thread& t : pool) t.join();
    throw;
  }
  for (std::thread& t : pool) t.join();
  return committed;
}

}  // namespace streamlab
