#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/small_fn.hpp"

/// \file future.hpp
/// Single-threaded simulation futures.
///
/// These deliberately do NOT involve threads or atomics: the whole simulated
/// machine runs on one OS thread inside the event engine, so a future is just
/// a shared completion flag plus a list of continuations (both plain
/// callbacks and suspended coroutines). Fulfilling a future resumes waiters
/// synchronously at the current virtual time; callers that need a scheduling
/// delay model it explicitly before calling set().
///
/// Nearly every future has exactly one continuation (a request completion
/// awaited by one coroutine, a stream sync observed by one callback), so the
/// state holds its first callback and its first waiter inline and spills
/// only further ones into vectors. States come from a per-thread slab pool:
/// one future per message is the steady state of every model layer.
///
/// This is the same abstraction Charm4py exposes to Python programs [17] and
/// what the channel API suspends on.

namespace cux::sim {

template <class T>
class Future;

/// Future fulfilled when every input future is fulfilled.
inline Future<void> allOf(const std::vector<Future<void>>& futures);

namespace detail {

/// Blocks carved from fresh slab space on this thread, over every FreeList.
/// It rises only when a pool grows past its peak live count, so a caller
/// that reads it around one allocation can tell a pool miss from reuse.
inline thread_local std::uint64_t tCarvedBlocks = 0;

/// Per-thread pool of fixed-size blocks, one pool per block type: the
/// storage of every future state and every UCX request. Blocks are carved
/// in order from slabs of kSlabBlocks; freed ones go on an intrusive free
/// list that is reused first, so recycled storage stays compact instead of
/// pinning scattered heap chunks between machine builds. The simulation is
/// single-threaded, so a thread_local pool needs no locking; a future or a
/// request is created and dropped on the thread that runs its simulation.
/// Slabs are held until the thread exits — the pool's footprint is the
/// peak number of live blocks, and a block may outlive the machine that
/// made it.
template <class U>
class FreeList {
 public:
  static constexpr std::size_t kSlabBlocks = 64;

  FreeList() = default;
  FreeList(const FreeList&) = delete;
  FreeList& operator=(const FreeList&) = delete;
  ~FreeList();

  [[nodiscard]] void* pop() {
    if (Node* n = head_) {
      head_ = n->next;
      ++live_;
      return n;
    }
    if (next_ == end_) refill();
    ++tCarvedBlocks;
    ++live_;
    return std::exchange(next_, next_ + kBlock);
  }
  void push(void* p) noexcept {
    auto* n = static_cast<Node*>(p);
    n->next = head_;
    head_ = n;
    --live_;
  }

 private:
  struct Node {
    Node* next;
  };
  static constexpr std::size_t kBlock = sizeof(U) < sizeof(Node) ? sizeof(Node) : sizeof(U);

  void refill() {
    next_ = static_cast<std::byte*>(::operator new(kBlock * kSlabBlocks));
    end_ = next_ + kBlock * kSlabBlocks;
    slabs_.push_back(next_);
  }

  Node* head_ = nullptr;
  std::byte* next_ = nullptr;  ///< first never-used block of the newest slab
  std::byte* end_ = nullptr;
  std::size_t live_ = 0;  ///< blocks handed out and not yet returned
  std::vector<void*> slabs_;
};

/// Set once the thread's pool is destroyed (trivially destructible, so it
/// stays readable while other thread_locals are torn down). Past that point
/// states come straight from the heap and freed blocks stay where they are:
/// only a future created or dropped during thread teardown sees this.
template <class U>
inline thread_local bool tFreeListDead = false;

template <class U>
FreeList<U>::~FreeList() {
  tFreeListDead<U> = true;
  // A block still live here (a future held past thread exit) keeps every
  // slab: its storage must stay valid.
  if (live_ != 0) return;
  for (void* p : slabs_) ::operator delete(p);
}

template <class U>
FreeList<U>& freeList() {
  thread_local FreeList<U> list;
  return list;
}

/// Stateless allocator over FreeList, for allocate_shared: the control
/// block and the state are one block, recycled whole.
template <class T>
struct PoolAlloc {
  using value_type = T;
  PoolAlloc() noexcept = default;
  template <class U>
  PoolAlloc(const PoolAlloc<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    if (n == 1 && !tFreeListDead<T>) return static_cast<T*>(freeList<T>().pop());
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (n != 1) {
      ::operator delete(p);
    } else if (!tFreeListDead<T>) {
      freeList<T>().push(p);
    }
  }
  template <class U>
  bool operator==(const PoolAlloc<U>&) const noexcept {
    return true;
  }
};

/// Continuations of one future: the first callback and the first waiter
/// inline, any further ones in registration/suspension order behind them.
template <class Callback>
class Continuations {
 public:
  void addCallback(Callback cb) {
    if (!first_cb_ && more_cbs_.empty()) {
      first_cb_ = std::move(cb);
    } else {
      more_cbs_.push_back(std::move(cb));
    }
  }
  void addWaiter(std::coroutine_handle<> h) {
    if (!first_waiter_ && more_waiters_.empty()) {
      first_waiter_ = h;
    } else {
      more_waiters_.push_back(h);
    }
  }

  /// Runs callbacks in registration order, then resumes waiters in
  /// suspension order. Everything is moved out first, so a continuation
  /// that registers further ones (the future is ready by then, so those run
  /// immediately) cannot disturb the iteration.
  template <class... V>
  void fire(const V&... v) {
    Callback first = std::move(first_cb_);
    std::vector<Callback> more = std::move(more_cbs_);
    const std::coroutine_handle<> w0 = std::exchange(first_waiter_, nullptr);
    std::vector<std::coroutine_handle<>> ws = std::move(more_waiters_);
    if (first) first(v...);
    for (auto& cb : more) cb(v...);
    if (w0) w0.resume();
    for (auto h : ws) h.resume();
  }

 private:
  Callback first_cb_;
  std::coroutine_handle<> first_waiter_;
  std::vector<Callback> more_cbs_;
  std::vector<std::coroutine_handle<>> more_waiters_;
};

[[noreturn]] inline void throwFulfilledTwice() {
  throw std::logic_error("sim::Promise::set: future already fulfilled");
}

template <class T>
struct FutureState {
  using Callback = InlineFn<void(const T&), 56>;
  std::optional<T> value;
  Continuations<Callback> next;

  [[nodiscard]] bool ready() const noexcept { return value.has_value(); }

  void fulfil(T v) {
    if (ready()) throwFulfilledTwice();
    value.emplace(std::move(v));
    next.fire(*value);
  }
};

template <>
struct FutureState<void> {
  using Callback = InlineFn<void(), 56>;
  bool done = false;
  /// Inputs still outstanding when this state backs an allOf().
  std::size_t pending = 0;
  Continuations<Callback> next;

  [[nodiscard]] bool ready() const noexcept { return done; }

  void fulfil() {
    if (done) throwFulfilledTwice();
    done = true;
    next.fire();
  }
};

template <class T>
[[nodiscard]] std::shared_ptr<FutureState<T>> makeState() {
  return std::allocate_shared<FutureState<T>>(PoolAlloc<FutureState<T>>{});
}

}  // namespace detail

/// Write end of a future. Copyable; all copies refer to the same state.
/// Fulfilling it twice throws std::logic_error.
template <class T>
class Promise {
 public:
  Promise() : state_(detail::makeState<T>()) {}

  [[nodiscard]] Future<T> future() const noexcept;

  void set(T v) const { state_->fulfil(std::move(v)); }
  [[nodiscard]] bool ready() const noexcept { return state_->ready(); }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

template <>
class Promise<void> {
 public:
  Promise() : state_(detail::makeState<void>()) {}

  [[nodiscard]] Future<void> future() const noexcept;

  void set() const { state_->fulfil(); }
  [[nodiscard]] bool ready() const noexcept { return state_->ready(); }

 private:
  friend Future<void> allOf(const std::vector<Future<void>>& futures);
  std::shared_ptr<detail::FutureState<void>> state_;
};

/// Read end of a future: awaitable from coroutines, or subscribe a callback.
template <class T>
class Future {
 public:
  using Callback = typename detail::FutureState<T>::Callback;

  explicit Future(std::shared_ptr<detail::FutureState<T>> s) : state_(std::move(s)) {}

  [[nodiscard]] bool ready() const noexcept { return state_->ready(); }

  /// The fulfilled value; throws std::logic_error before ready().
  [[nodiscard]] const T& get() const {
    if (!ready()) throw std::logic_error("sim::Future::get: future not ready");
    return *state_->value;
  }

  /// Runs `cb` when the future completes (immediately if already complete).
  void onReady(Callback cb) const {
    if (state_->ready()) {
      cb(*state_->value);
    } else {
      state_->next.addCallback(std::move(cb));
    }
  }

  // --- coroutine support -----------------------------------------------
  bool await_ready() const noexcept { return state_->ready(); }
  void await_suspend(std::coroutine_handle<> h) const { state_->next.addWaiter(h); }
  T await_resume() const { return *state_->value; }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

template <>
class Future<void> {
 public:
  using Callback = detail::FutureState<void>::Callback;

  explicit Future(std::shared_ptr<detail::FutureState<void>> s) : state_(std::move(s)) {}

  [[nodiscard]] bool ready() const noexcept { return state_->ready(); }

  void onReady(Callback cb) const {
    if (state_->ready()) {
      cb();
    } else {
      state_->next.addCallback(std::move(cb));
    }
  }

  bool await_ready() const noexcept { return state_->ready(); }
  void await_suspend(std::coroutine_handle<> h) const { state_->next.addWaiter(h); }
  void await_resume() const noexcept {}

 private:
  std::shared_ptr<detail::FutureState<void>> state_;
};

template <class T>
Future<T> Promise<T>::future() const noexcept {
  return Future<T>{state_};
}

inline Future<void> Promise<void>::future() const noexcept { return Future<void>{state_}; }

/// The countdown lives in the result's own state; each input holds one
/// reference to it until it fires, so nothing outlives its last input.
inline Future<void> allOf(const std::vector<Future<void>>& futures) {
  Promise<void> done;
  std::shared_ptr<detail::FutureState<void>> s = done.state_;
  s->pending = futures.size();
  if (s->pending == 0) {
    s->fulfil();
    return done.future();
  }
  for (const auto& f : futures) {
    f.onReady([s] {
      if (--s->pending == 0) s->fulfil();
    });
  }
  return done.future();
}

}  // namespace cux::sim
