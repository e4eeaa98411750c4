#pragma once

#include <coroutine>
#include <cstdio>
#include <exception>
#include <utility>

#include "sim/engine.hpp"
#include "sim/future.hpp"

/// \file task.hpp
/// Detached coroutine type used for simulated threads of control.
///
/// AMPI ranks, Charm4py coroutines and benchmark drivers are written as
/// ordinary sequential code that `co_await`s communication; the discrete
/// event engine resumes them when the awaited operation completes in virtual
/// time. A SimTask starts eagerly and owns its own frame: when the body runs
/// to completion the frame is destroyed automatically (final_suspend never
/// suspends), so the creator does not need to keep the handle alive.

namespace cux::sim {

class [[nodiscard]] SimTask {
 public:
  struct promise_type {
    SimTask get_return_object() noexcept { return SimTask{}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    [[noreturn]] void unhandled_exception() noexcept {
      // A simulated thread of control has no caller to propagate into;
      // surface the error loudly instead of losing it.
      std::fprintf(stderr, "cux::sim::SimTask: unhandled exception escaped a simulated task\n");
      std::terminate();
    }
  };
};

/// Coroutine whose completion is observable as a sim::Future<void>.
/// Used for simulated ranks / coroutines whose termination the harness needs
/// to join on (e.g. World::run waits for every rank's main to return).
class [[nodiscard]] FutureTask {
 public:
  struct promise_type {
    Promise<void> done;

    FutureTask get_return_object() noexcept { return FutureTask{done.future()}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept {
      // Waiters resume synchronously here, while the frame is still alive;
      // returning suspend_never then destroys the frame.
      done.set();
      return {};
    }
    void return_void() noexcept {}
    [[noreturn]] void unhandled_exception() noexcept {
      std::fprintf(stderr, "cux::sim::FutureTask: unhandled exception escaped a task\n");
      std::terminate();
    }
  };

  [[nodiscard]] Future<void> future() const noexcept { return future_; }

  // Awaitable: co_await task waits for its completion.
  bool await_ready() const noexcept { return future_.ready(); }
  void await_suspend(std::coroutine_handle<> h) const { future_.await_suspend(h); }
  void await_resume() const noexcept {}

 private:
  explicit FutureTask(Future<void> f) : future_(std::move(f)) {}
  Future<void> future_;
};

/// Awaitable that suspends the current coroutine for `d` nanoseconds of
/// virtual time. Usage: `co_await delay(engine, usec(5));`
struct DelayAwaiter {
  Engine& engine;
  Duration duration;

  bool await_ready() const noexcept { return duration == 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    engine.after(duration, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

[[nodiscard]] inline DelayAwaiter delay(Engine& engine, Duration d) { return DelayAwaiter{engine, d}; }

}  // namespace cux::sim
