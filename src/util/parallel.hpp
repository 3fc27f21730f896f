// Minimal threading utilities, standard library only. `ThreadPool` is the
// persistent worker pool behind the scenario-sweep engine (sim/sweep.hpp);
// `parallel_for` is the one-shot alternative for fan-outs that don't keep a
// pool around; `run_team` runs one body on a fixed team of threads that
// meet at barriers (the GMM fit's EM iterations, stats/gmm.cpp). All
// mutex-guarded state carries thread-safety annotations
// (util/thread_annotations.hpp), so clang's -Wthread-safety verifies the
// locking discipline at compile time; the team's barrier is lock-free.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "util/thread_annotations.hpp"

namespace ga::util {

/// Worker count used when the caller passes 0: the hardware concurrency,
/// or 1 when the runtime cannot report it.
[[nodiscard]] inline std::size_t default_thread_count() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? std::size_t{1} : static_cast<std::size_t>(hw);
}

/// A fixed-size pool of worker threads draining a FIFO task queue.
///
/// Tasks must not throw (wrap bodies that can — `parallel_for` shows the
/// pattern); `wait_idle` blocks until every submitted task has finished, so
/// one pool can serve many batches back to back. Submission and waiting are
/// intended for a single controlling thread.
class ThreadPool {
public:
    explicit ThreadPool(std::size_t threads = 0) {
        const std::size_t n = threads == 0 ? default_thread_count() : threads;
        workers_.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            workers_.emplace_back([this] { work(); });
        }
    }

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    ~ThreadPool() {
        {
            const LockGuard lock(mutex_);
            stopping_ = true;
        }
        wake_.notify_all();
        for (auto& w : workers_) w.join();
    }

    [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

    /// Enqueues one task for execution on some worker.
    void submit(std::function<void()> task) {
        {
            const LockGuard lock(mutex_);
            tasks_.push_back(std::move(task));
            ++pending_;
        }
        wake_.notify_one();
    }

    /// Blocks until every task submitted so far has run to completion.
    void wait_idle() {
        const LockGuard lock(mutex_);
        while (pending_ != 0) idle_.wait(mutex_);
    }

private:
    void work() {
        for (;;) {
            std::function<void()> task;
            {
                const LockGuard lock(mutex_);
                while (!stopping_ && tasks_.empty()) wake_.wait(mutex_);
                if (tasks_.empty()) return;  // stopping, queue drained
                task = std::move(tasks_.front());
                tasks_.pop_front();
            }
            task();
            bool drained = false;
            {
                const LockGuard lock(mutex_);
                drained = --pending_ == 0;
            }
            // Only the task that drains the queue wakes waiters: notifying
            // after every task made each completion a spurious wakeup for
            // the controlling thread under long batches.
            if (drained) idle_.notify_all();
        }
    }

    Mutex mutex_;
    CondVar wake_;
    CondVar idle_;
    std::deque<std::function<void()>> tasks_ GA_GUARDED_BY(mutex_);
    std::size_t pending_ GA_GUARDED_BY(mutex_) = 0;
    bool stopping_ GA_GUARDED_BY(mutex_) = false;
    std::vector<std::thread> workers_;
};

/// Runs `body(i)` for every i in [0, n), distributing iterations over
/// `threads` workers (0 = hardware concurrency) through an atomic cursor.
/// The calling thread participates, so `threads == 1` degenerates to a plain
/// loop with no thread spawned. The first exception thrown by any iteration
/// cancels the remaining ones and is rethrown on the caller after all
/// workers drain.
template <typename Body>
void parallel_for(std::size_t n, std::size_t threads, Body&& body) {
    if (n == 0) return;
    std::size_t workers = threads == 0 ? default_thread_count() : threads;
    workers = std::min(workers, n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i) body(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    // Error-collection locals are leaves of the declared lock hierarchy:
    // taken last, holding nothing else, never held across a call out.
    Mutex error_mutex GA_ACQUIRED_AFTER(ThreadPool::mutex_);
    std::exception_ptr error;
    const auto run = [&]() noexcept {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) return;
            try {
                body(i);
            } catch (...) {
                const LockGuard lock(error_mutex);
                if (!error) error = std::current_exception();
                next.store(n, std::memory_order_relaxed);  // cancel the rest
            }
        }
    };

    std::vector<std::thread> extra;
    extra.reserve(workers - 1);
    for (std::size_t t = 1; t < workers; ++t) extra.emplace_back(run);
    run();
    for (auto& th : extra) th.join();
    if (error) std::rethrow_exception(error);
}

/// The members of one `run_team` call. Members meet at `sync()`; a member
/// that throws leaves the team, and the others see it at their next
/// `sync()`, so nobody waits on a barrier that can no longer fill.
class Team {
public:
    explicit Team(std::size_t size)
        : expected_(static_cast<std::ptrdiff_t>(size)),
          remaining_(static_cast<std::ptrdiff_t>(size)) {}

    Team(const Team&) = delete;
    Team& operator=(const Team&) = delete;

    /// Waits until every member still in the team has arrived. Returns
    /// false once any member has thrown: the caller must then return
    /// without syncing again.
    [[nodiscard]] bool sync() {
        arrive(/*leave=*/false);
        return !failed_.load();
    }

private:
    template <typename Body>
    friend void run_team(std::size_t threads, Body&& body);

    /// One arrival at the current phase. The last arrival opens the next
    /// phase; a leaving member does not wait, and every later phase expects
    /// one member fewer. Waiters block in `std::atomic::wait` (a futex on
    /// Linux): with libstdc++ 12's `std::barrier` instead, the two-thread
    /// GMM fit measured ~1.7x slower.
    void arrive(bool leave) {
        const std::uint32_t phase = phase_.load();
        if (leave) ++leaving_;
        if (remaining_.fetch_sub(1) == 1) {
            // Only the completing arrival touches expected_; the phase bump
            // orders it before the next phase's arrivals.
            expected_ -= leaving_.exchange(0);
            remaining_.store(expected_);
            phase_.fetch_add(1);
            phase_.notify_all();
        } else if (!leave) {
            phase_.wait(phase);
        }
    }

    std::ptrdiff_t expected_;
    std::atomic<std::ptrdiff_t> remaining_;
    std::atomic<std::ptrdiff_t> leaving_{0};
    std::atomic<std::uint32_t> phase_{0};
    std::atomic<bool> failed_{false};
};

/// Runs `body(member, team)` once for every member in [0, threads) (0 =
/// hardware concurrency), each on its own thread; the calling thread is
/// member 0, so `threads == 1` spawns nothing. Members sync through
/// `team.sync()`. A member leaves the team when its body returns or
/// throws; once every member has left, the exception of the lowest member
/// that threw is rethrown on the caller.
template <typename Body>
void run_team(std::size_t threads, Body&& body) {
    const std::size_t n = threads == 0 ? default_thread_count() : threads;
    Team team(n);
    // Slot m is written only by member m and read after the joins.
    std::vector<std::exception_ptr> errors(n);
    const auto member = [&](std::size_t m) noexcept {
        try {
            body(m, team);
        } catch (...) {
            errors[m] = std::current_exception();
            team.failed_.store(true);
        }
        team.arrive(/*leave=*/true);
    };

    std::vector<std::thread> extra;
    extra.reserve(n - 1);
    for (std::size_t m = 1; m < n; ++m) extra.emplace_back(member, m);
    member(0);
    for (auto& th : extra) th.join();
    for (const auto& error : errors) {
        if (error) std::rethrow_exception(error);
    }
}

}  // namespace ga::util
