// The ordered job pool (core/jobs.hpp): commit order at any worker count,
// edge sizes, failure, cancellation and nesting.
#include "core/jobs.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace streamlab {
namespace {

/// Sleeps a seeded 0-300 us, different per job, so jobs finish out of
/// index order.
void jitter(std::size_t job) {
  Rng rng(0xC0FFEE + job);
  std::this_thread::sleep_for(std::chrono::microseconds(rng.uniform_int(0, 300)));
}

std::vector<std::size_t> iota(std::size_t n) {
  std::vector<std::size_t> out(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  return out;
}

TEST(Jobs, CommitsInIndexOrderAtAnyWorkerCount) {
  constexpr std::size_t kJobs = 48;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    std::vector<std::uint64_t> results(kJobs, 0);
    std::vector<std::size_t> committed;
    std::mutex mu;
    std::set<std::thread::id> threads;
    std::set<std::size_t> runners;
    const std::size_t n = run_jobs(
        kJobs, workers,
        [&](std::size_t job, std::size_t runner) {
          jitter(job);
          results[job] = job * job + 1;
          std::lock_guard<std::mutex> lock(mu);
          threads.insert(std::this_thread::get_id());
          runners.insert(runner);
        },
        [&](std::size_t job) {
          // The job's result is visible to its commit on the calling thread.
          EXPECT_EQ(results[job], job * job + 1) << "workers=" << workers;
          committed.push_back(job);
        });
    EXPECT_EQ(n, kJobs) << "workers=" << workers;
    EXPECT_EQ(committed, iota(kJobs)) << "workers=" << workers;
    const std::size_t runner_count = job_workers(workers, kJobs);
    EXPECT_LE(threads.size(), runner_count) << "workers=" << workers;
    EXPECT_LT(*runners.rbegin(), runner_count) << "workers=" << workers;
  }
}

TEST(Jobs, OneWorkerCommitsEachJobBeforeClaimingTheNext) {
  std::vector<std::string> log;
  const auto caller = std::this_thread::get_id();
  run_jobs(
      3, 1,
      [&](std::size_t job, std::size_t runner) {
        EXPECT_EQ(runner, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        log.push_back("run" + std::to_string(job));
      },
      [&](std::size_t job) { log.push_back("commit" + std::to_string(job)); });
  EXPECT_EQ(log, (std::vector<std::string>{"run0", "commit0", "run1", "commit1", "run2",
                                           "commit2"}));
}

TEST(Jobs, ZeroJobsRunNothing) {
  EXPECT_EQ(job_workers(4, 0), 1u);
  bool called = false;
  EXPECT_EQ(run_jobs(
                0, 4, [&](std::size_t, std::size_t) { called = true; },
                [&](std::size_t) { called = true; }),
            0u);
  EXPECT_FALSE(called);
}

TEST(Jobs, MoreWorkersThanJobsUseOneRunnerPerJob) {
  EXPECT_EQ(job_workers(8, 3), 3u);
  EXPECT_EQ(job_workers(0, 1), 1u);
  EXPECT_GE(job_workers(0, 1000), 1u);
  std::vector<std::size_t> committed;
  std::vector<std::size_t> runner_of(3, 99);
  EXPECT_EQ(run_jobs(
                3, 8,
                [&](std::size_t job, std::size_t runner) {
                  jitter(job);
                  runner_of[job] = runner;
                },
                [&](std::size_t job) { committed.push_back(job); }),
            3u);
  EXPECT_EQ(committed, iota(3));
  for (const std::size_t runner : runner_of) EXPECT_LT(runner, 3u);
}

TEST(Jobs, ThrowingJobRethrowsLowestFailingIndexAfterEveryRunnerJoined) {
  for (const std::size_t workers : {1u, 4u}) {
    std::atomic<int> running{0};
    std::atomic<int> started{0};
    std::vector<std::size_t> committed;
    try {
      run_jobs(
          40, workers,
          [&](std::size_t job, std::size_t) {
            ++running;
            ++started;
            // Job 9 fails at once; job 5, claimed earlier, fails later.
            std::this_thread::sleep_for(std::chrono::microseconds(job == 5 ? 3000 : 200));
            --running;
            if (job == 5 || job == 9) throw std::runtime_error("job " + std::to_string(job));
          },
          [&](std::size_t job) { committed.push_back(job); });
      ADD_FAILURE() << "no exception, workers=" << workers;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 5") << "workers=" << workers;
      // Nothing runs once run_jobs has thrown: every runner has joined.
      EXPECT_EQ(running.load(), 0);
      const int after_throw = started.load();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      EXPECT_EQ(started.load(), after_throw);
      EXPECT_LT(after_throw, 40);
    }
    EXPECT_EQ(committed, iota(5)) << "workers=" << workers;
  }
}

TEST(Jobs, ThrowingCommitStopsThePoolAndPropagates) {
  std::atomic<int> started{0};
  std::vector<std::size_t> committed;
  EXPECT_THROW(run_jobs(
                   64, 4,
                   [&](std::size_t job, std::size_t) {
                     ++started;
                     jitter(job);
                   },
                   [&](std::size_t job) {
                     if (job == 3) throw std::logic_error("commit 3");
                     committed.push_back(job);
                   }),
               std::logic_error);
  EXPECT_EQ(committed, iota(3));
  const int after_throw = started.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(started.load(), after_throw);
}

TEST(Jobs, CancelStopsClaimsAndCommitsAnUnbrokenPrefix) {
  for (const std::size_t workers : {1u, 4u}) {
    std::atomic<bool> cancel{false};
    std::vector<std::size_t> committed;
    const std::size_t n = run_jobs(
        64, workers,
        [&](std::size_t job, std::size_t) {
          jitter(job);
          // Later jobs outlast the cancel (or 50 ms), so claims cannot run
          // past it however the threads are scheduled.
          const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
          while (job >= 8 && !cancel.load() && std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        },
        [&](std::size_t job) {
          committed.push_back(job);
          if (job == 3) cancel.store(true);
        },
        &cancel);
    EXPECT_EQ(committed, iota(n)) << "workers=" << workers;
    EXPECT_GE(n, 4u) << "workers=" << workers;
    EXPECT_LT(n, 64u) << "workers=" << workers;
    if (workers == 1) {
      EXPECT_EQ(n, 4u);
    }
  }
}

TEST(Jobs, NestedRunJobsRunsInlineOnTheJobsThread) {
  std::mutex mu;
  std::vector<std::size_t> inner_runners;
  std::atomic<int> foreign_threads{0};
  std::vector<std::vector<std::size_t>> inner_order(4);
  run_jobs(
      4, 4,
      [&](std::size_t job, std::size_t) {
        EXPECT_EQ(job_workers(8, 8), 1u);
        const auto self = std::this_thread::get_id();
        // Twice: the first nested call must leave the job marked as a job.
        for (int round = 0; round < 2; ++round) {
          run_jobs(
              8, 8,
              [&](std::size_t, std::size_t runner) {
                if (std::this_thread::get_id() != self) ++foreign_threads;
                std::lock_guard<std::mutex> lock(mu);
                inner_runners.push_back(runner);
              },
              [&](std::size_t inner) { inner_order[job].push_back(inner); });
        }
        EXPECT_EQ(job_workers(8, 8), 1u);
      },
      [](std::size_t) {});
  EXPECT_EQ(foreign_threads.load(), 0);
  EXPECT_EQ(inner_runners, std::vector<std::size_t>(64, 0));
  std::vector<std::size_t> twice = iota(8);
  twice.insert(twice.end(), twice.begin(), twice.end());
  for (const auto& order : inner_order) EXPECT_EQ(order, twice);
  // Outside any job the pool is parallel again.
  EXPECT_EQ(job_workers(2, 8), 2u);
}

}  // namespace
}  // namespace streamlab
