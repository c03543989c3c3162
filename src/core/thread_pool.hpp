#pragma once

/// \file thread_pool.hpp
/// The two threading primitives of the serving stack: a fixed-size
/// `ThreadPool` with a blocking `parallel_for` for compute (the HE hot
/// loops: per-output-channel ciphertext responses, RNS limb transforms),
/// and a `WorkQueue` of dedicated workers for long-running blocking
/// tasks (whole serving sessions — see pi::ServingPool). ThreadPool
/// design constraints, in order:
///
///  * determinism of the *protocol* is the caller's job — the pool only
///    promises that every index runs exactly once and that parallel_for
///    returns after all of them finished;
///  * nested parallel_for calls run inline on the calling thread (the
///    per-channel tasks call poly_intt, whose limb loop is itself
///    parallelized — without the depth guard that would deadlock a small
///    pool);
///  * a pool of one thread executes everything inline on the caller, in
///    index order: `num_threads = 1` is bit-and-schedule-identical to the
///    pre-pool serial code;
///  * concurrent parallel_for calls from different threads (many server
///    sessions sharing one CompiledModel) are safe and share the workers.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/error.hpp"

namespace c2pi::core {

/// Hard cap on the pool size, matching the CompiledModel option
/// validation: an absurd C2PI_THREADS must not translate into a million
/// std::thread constructions.
inline constexpr int kMaxThreads = 1024;

/// Resolve a requested worker count: values > 0 pass through; 0 means
/// "auto" — the C2PI_THREADS environment variable if set and positive,
/// else std::thread::hardware_concurrency(). Clamped to [1, kMaxThreads].
[[nodiscard]] inline int resolve_thread_count(int requested) {
    int resolved = 0;
    if (requested > 0) {
        resolved = requested;
    } else if (const char* env = std::getenv("C2PI_THREADS");
               env != nullptr && env[0] != '\0' && std::atoi(env) > 0) {
        resolved = std::atoi(env);
    } else {
        const unsigned hw = std::thread::hardware_concurrency();
        resolved = hw == 0 ? 1 : static_cast<int>(hw);
    }
    return resolved > kMaxThreads ? kMaxThreads : resolved;
}

class ThreadPool {
public:
    /// `num_threads` counts the caller too: a pool of N spawns N-1
    /// workers and the thread calling parallel_for participates. 0 = auto
    /// (see resolve_thread_count).
    explicit ThreadPool(int num_threads = 0) : num_threads_(resolve_thread_count(num_threads)) {
        workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
        for (int i = 1; i < num_threads_; ++i)
            workers_.emplace_back([this] { worker_loop(); });
    }

    ~ThreadPool() {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        for (auto& w : workers_) w.join();
    }

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] int num_threads() const { return num_threads_; }

    /// Run fn(i) exactly once for every i in [begin, end), blocking until
    /// all finished. The calling thread participates. The first exception
    /// thrown by any fn(i) is rethrown here (remaining indices still run,
    /// so the pool is never left with orphaned work). Runs inline — in
    /// index order, no synchronization — when the pool has one thread,
    /// the range has one element, or the call is nested inside another
    /// parallel_for of any pool.
    void parallel_for(std::int64_t begin, std::int64_t end,
                      const std::function<void(std::int64_t)>& fn) const {
        const std::int64_t count = end - begin;
        if (count <= 0) return;
        if (num_threads_ == 1 || count == 1 || depth() > 0) {
            ++depth();
            try {
                for (std::int64_t i = begin; i < end; ++i) fn(i);
            } catch (...) {
                --depth();
                throw;
            }
            --depth();
            return;
        }
        auto job = std::make_shared<Job>();
        job->begin = begin;
        job->end = end;
        job->next.store(begin, std::memory_order_relaxed);
        job->fn = &fn;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back(job);
        }
        cv_.notify_all();
        run_job(*job);
        std::unique_lock<std::mutex> lock(job->mutex);
        job->cv.wait(lock, [&] { return job->done.load(std::memory_order_acquire) == count; });
        if (job->error) std::rethrow_exception(job->error);
    }

private:
    /// One parallel_for invocation. Lives on the queue as a shared_ptr so
    /// a worker still draining indices can outlast the caller's wait.
    struct Job {
        std::int64_t begin = 0, end = 0;
        const std::function<void(std::int64_t)>* fn = nullptr;
        std::atomic<std::int64_t> next{0};
        std::atomic<std::int64_t> done{0};
        std::mutex mutex;
        std::condition_variable cv;
        std::exception_ptr error;
    };

    /// Per-thread nesting depth; static so one guard covers every pool.
    [[nodiscard]] static int& depth() {
        thread_local int d = 0;
        return d;
    }

    void run_job(Job& job) const {
        ++depth();
        const std::int64_t count = job.end - job.begin;
        for (;;) {
            const std::int64_t i = job.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= job.end) break;
            try {
                (*job.fn)(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(job.mutex);
                if (!job.error) job.error = std::current_exception();
            }
            if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
                // Lock guards against the waiter checking the predicate
                // between its load and its wait.
                const std::lock_guard<std::mutex> lock(job.mutex);
                job.cv.notify_all();
            }
        }
        --depth();
    }

    void worker_loop() const {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
            if (stop_) return;
            auto job = queue_.front();
            if (job->next.load(std::memory_order_relaxed) >= job->end) {
                queue_.pop_front();  // fully claimed; nothing left to help with
                continue;
            }
            lock.unlock();
            run_job(*job);
            lock.lock();
            // run_job returns only once every index is claimed, so the job
            // no longer belongs on the queue (it may already be gone).
            for (auto it = queue_.begin(); it != queue_.end(); ++it) {
                if (*it == job) {
                    queue_.erase(it);
                    break;
                }
            }
        }
    }

    int num_threads_;
    mutable std::mutex mutex_;
    mutable std::condition_variable cv_;
    mutable std::deque<std::shared_ptr<Job>> queue_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

/// Fixed worker set consuming a bounded queue of long-running tasks —
/// the serving-side complement of ThreadPool. parallel_for splits one
/// computation across threads and blocks for all of it; a WorkQueue
/// hands each task (an accepted connection serving a whole session,
/// seconds of blocking protocol I/O) to one dedicated worker. Design
/// constraints, in order:
///
///  * the in-flight bound counts queued AND running tasks, so a caller
///    holding a connection gets an immediate accept/refuse answer
///    (`try_submit`) instead of an unbounded backlog — the refusal is
///    what pi::ServingPool turns into the wire-level BUSY frame;
///  * `drain()` is graceful: no new submissions, every already-accepted
///    task still runs to completion before the workers join — an
///    in-flight session is never dropped;
///  * tasks must not throw (serving code reports its own failures);
///    a task that does throw terminates, by design — swallowing it
///    here would hide a serving bug.
class WorkQueue {
public:
    /// `workers` dedicated threads; up to `workers + max_pending` tasks
    /// in flight (running + queued) before try_submit refuses.
    WorkQueue(int workers, int max_pending)
        : bound_(static_cast<std::size_t>(workers) + static_cast<std::size_t>(max_pending)) {
        require(workers >= 1 && workers <= kMaxThreads,
                "WorkQueue workers must lie in [1, 1024]");
        require(max_pending >= 0, "WorkQueue max_pending must be >= 0");
        workers_.reserve(static_cast<std::size_t>(workers));
        for (int i = 0; i < workers; ++i)
            workers_.emplace_back([this] { worker_loop(); });
    }

    ~WorkQueue() { drain(); }

    WorkQueue(const WorkQueue&) = delete;
    WorkQueue& operator=(const WorkQueue&) = delete;

    [[nodiscard]] int workers() const { return static_cast<int>(workers_.size()); }

    /// Queue a task unless the queue is draining or the in-flight bound
    /// is reached; returns whether the task was accepted. An accepted
    /// task is guaranteed to run, even if drain() is called right after.
    /// `then` (optional) runs on the same worker once the task's
    /// in-flight slot is released, so whatever it reports happens after
    /// the queue can admit a successor; drain() still waits for it.
    [[nodiscard]] bool try_submit(std::function<void()> task, std::function<void()> then = {}) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (draining_ || in_flight_ >= bound_) return false;
            ++in_flight_;
            queue_.push_back({std::move(task), std::move(then)});
        }
        cv_work_.notify_one();
        return true;
    }

    /// Tasks currently queued or running.
    [[nodiscard]] std::size_t in_flight() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return in_flight_;
    }

    /// Refuse new submissions, run everything already accepted, join the
    /// workers. Idempotent; also run by the destructor.
    void drain() {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            draining_ = true;
            cv_idle_.wait(lock, [&] { return in_flight_ == 0; });
            stop_ = true;
        }
        cv_work_.notify_all();
        for (auto& w : workers_)
            if (w.joinable()) w.join();
    }

private:
    void worker_loop() {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            cv_work_.wait(lock, [&] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stop_ set and nothing left to run
            Entry entry = std::move(queue_.front());
            queue_.pop_front();
            lock.unlock();
            entry.task();
            lock.lock();
            if (--in_flight_ == 0) cv_idle_.notify_all();
            if (entry.then) {
                lock.unlock();
                entry.then();
                lock.lock();
            }
        }
    }

    struct Entry {
        std::function<void()> task;
        std::function<void()> then;
    };

    const std::size_t bound_;
    mutable std::mutex mutex_;
    std::condition_variable cv_work_;  ///< wakes workers on new tasks / stop
    std::condition_variable cv_idle_;  ///< wakes drain() when in_flight_ hits 0
    std::deque<Entry> queue_;
    std::size_t in_flight_ = 0;  ///< queued + running
    bool draining_ = false;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

/// parallel_for over an optional pool: a null pool runs the plain serial
/// loop (the protocol code treats "no pool" and "one thread" identically).
inline void parallel_for(const ThreadPool* pool, std::int64_t begin, std::int64_t end,
                         const std::function<void(std::int64_t)>& fn) {
    if (pool == nullptr) {
        for (std::int64_t i = begin; i < end; ++i) fn(i);
        return;
    }
    pool->parallel_for(begin, end, fn);
}

/// Validate + resolve a serving thread count and build the pool for it.
/// A one-thread pool is pure overhead, so the result is null whenever the
/// request resolves to serial — callers treat "no pool" as the exact
/// serial schedule. Shared by CompiledModel and ClientModel so the two
/// halves of an artifact can never diverge on thread resolution.
[[nodiscard]] inline std::unique_ptr<ThreadPool> make_serving_pool(int num_threads) {
    require(num_threads >= 0 && num_threads <= kMaxThreads,
            "num_threads must lie in [0, 1024] (0 = auto)");
    const int resolved = resolve_thread_count(num_threads);
    if (resolved <= 1) return nullptr;
    return std::make_unique<ThreadPool>(resolved);
}

}  // namespace c2pi::core
