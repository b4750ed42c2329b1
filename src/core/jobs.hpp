// The ordered job pool: share-nothing jobs run side by side, their results
// are committed one by one in job-index order.
//
// Every parallel loop of the program runs here: campaign trials
// (run_campaign), bottleneck sweep points (sweep_bottleneck) and the
// friendliness runs of `reproduce`. A job owns everything it simulates —
// EventLoop, Network, Rng, capture — and writes its result into a slot of
// its own, so the only state runners share is the claim counter and the
// completion records guarded here. Results are committed on the calling
// thread in index order, so whatever the commit step builds (a manifest, a
// table, a result vector) is identical at any worker count. DESIGN.md §10
// gives the isolation argument.
#pragma once

#include <atomic>
#include <cstddef>

#include "util/function_ref.hpp"

namespace streamlab {

/// Runners run_jobs uses for `jobs` jobs when asked for `requested` (0 = one
/// per hardware thread): at least one, never more than there are jobs, and
/// exactly one when called from inside a running job — a nested run_jobs
/// runs inline and starts no thread.
std::size_t job_workers(std::size_t requested, std::size_t jobs);

/// Runs jobs 0..jobs-1 on job_workers(workers, jobs) runners: the calling
/// thread (runner 0) plus spawned threads (runners 1..). Jobs are claimed in
/// index order; `run(job, runner)` runs a job on its runner and stores the
/// result where `commit` will find it. `commit(job)` runs on the calling
/// thread, in index order, once its job has finished. With one runner no
/// thread is spawned and each job commits before the next is claimed.
///
/// Cancellation: once `*cancel` reads true no further job is claimed; jobs
/// in flight finish, and commits continue in order up to the first job that
/// never ran. Returns the number of jobs committed (`jobs` unless cancelled).
///
/// Failure: a job that throws stops further claims. Every job below it still
/// commits; then, after every spawned runner has joined, the exception of
/// the lowest failing job is rethrown. A throwing `commit` likewise stops
/// claims, joins the runners and propagates.
std::size_t run_jobs(std::size_t jobs, std::size_t workers,
                     FunctionRef<void(std::size_t job, std::size_t runner)> run,
                     FunctionRef<void(std::size_t job)> commit,
                     const std::atomic<bool>* cancel = nullptr);

}  // namespace streamlab
