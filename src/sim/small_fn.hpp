#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

/// \file small_fn.hpp
/// Move-only callable wrappers with inline storage: the one callable type of
/// the per-message path.
///
/// `std::function` heap-allocates any capture above ~16 bytes and copies its
/// target whenever it is copied, which is nearly every continuation the
/// communication layers build (a request pointer plus a completion is
/// already 48 bytes). `InlineFn<R(A...), Capacity>` stores callables of up
/// to `Capacity` bytes in place and falls back to the heap transparently for
/// larger ones. It is move-only, so a continuation is never copied: it moves
/// from the layer that builds it into the slot that runs it (an engine slot,
/// a UCX request, a future).
///
/// Capacities in use (see the capture audit in docs/architecture.md):
///  * `sim::SmallFn` (engine events): 144 bytes, a `Worker::Incoming`
///    arrival plus the worker pointer.
///  * `ucx::CompletionFn`: the DeviceComm completion captures.
///  * `core::DoneFn`, `cuda::Stream` ops and future callbacks: 56 bytes,
///    the model-layer completions (request state plus a status).

namespace cux::sim {

template <class Sig, std::size_t Capacity>
class InlineFn;

namespace detail {

template <class T>
struct IsInlineFn : std::false_type {};
template <class Sig, std::size_t C>
struct IsInlineFn<InlineFn<Sig, C>> : std::true_type {};
template <class T>
struct IsStdFunction : std::false_type {};
template <class Sig>
struct IsStdFunction<std::function<Sig>> : std::true_type {};

/// Callables that can be empty: wrapping an empty one yields an empty
/// InlineFn, so `if (fn)` keeps meaning "something to run".
template <class F>
inline constexpr bool kNullable = std::is_pointer_v<F> || std::is_member_pointer_v<F> ||
                                  IsStdFunction<F>::value || IsInlineFn<F>::value;

}  // namespace detail

template <class R, class... A, std::size_t Capacity>
class InlineFn<R(A...), Capacity> {
 public:
  static constexpr std::size_t kInlineCapacity = Capacity;

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::remove_cvref_t<F>, InlineFn> &&
                                        std::is_invocable_r_v<R, std::remove_cvref_t<F>&, A...>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  InlineFn(InlineFn&& other) noexcept : ops_(other.ops_) {
    if (ops_) ops_->relocate(storage_, other.storage_);
    other.ops_ = nullptr;
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_) ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  /// Replaces the held callable with `f`, built directly in this object's
  /// storage: no temporary InlineFn and no relocation through the ops table.
  /// Passing an InlineFn of the same type moves it in. If building `f`
  /// throws, this InlineFn is left empty.
  template <typename F,
            typename = std::enable_if_t<std::is_invocable_r_v<R, std::remove_cvref_t<F>&, A...>>>
  void emplace(F&& f) {
    if constexpr (std::is_same_v<std::remove_cvref_t<F>, InlineFn>) {
      *this = std::forward<F>(f);
    } else {
      reset();
      construct(std::forward<F>(f));
    }
  }

  /// Destroys the held callable (no-op when empty).
  void reset() noexcept {
    if (ops_) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invokes the held callable; calling an empty InlineFn is a no-op for
  /// `void` signatures and undefined otherwise.
  R operator()(A... args) const {
    if constexpr (std::is_void_v<R>) {
      if (ops_) ops_->invoke(storage_, std::forward<A>(args)...);
    } else {
      return ops_->invoke(storage_, std::forward<A>(args)...);
    }
  }

  /// True when a callable of type `Fn` is stored without a heap allocation
  /// (exposed for the capture-size regression tests).
  template <typename Fn>
  [[nodiscard]] static constexpr bool fitsInline() noexcept {
    return sizeof(Fn) <= Capacity && alignof(Fn) <= kAlign &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  /// Pointer alignment, not max_align_t: captures are pointers, integers and
  /// standard containers, and an InlineFn nested in another one's capture
  /// then adds no padding. Over-aligned callables take the heap path.
  static constexpr std::size_t kAlign = alignof(void*);

  /// Builds `f` in the (empty) storage; a nullable `f` that is empty leaves
  /// this InlineFn empty.
  template <typename F>
  void construct(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (detail::kNullable<Fn>) {
      if (!f) return;
    }
    if constexpr (fitsInline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  struct Ops {
    R (*invoke)(void*, A&&...);
    void (*relocate)(void* dst, void* src) noexcept;  ///< move-construct dst, destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  struct InlineOps {
    static R invoke(void* p, A&&... args) {
      return std::invoke(*std::launder(reinterpret_cast<Fn*>(p)), std::forward<A>(args)...);
    }
    static void relocate(void* dst, void* src) noexcept {
      Fn* s = std::launder(reinterpret_cast<Fn*>(src));
      ::new (dst) Fn(std::move(*s));
      s->~Fn();
    }
    static void destroy(void* p) noexcept { std::launder(reinterpret_cast<Fn*>(p))->~Fn(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* get(void* p) noexcept { return *std::launder(reinterpret_cast<Fn**>(p)); }
    static R invoke(void* p, A&&... args) {
      return std::invoke(*get(p), std::forward<A>(args)...);
    }
    static void relocate(void* dst, void* src) noexcept { ::new (dst) Fn*(get(src)); }
    static void destroy(void* p) noexcept { delete get(p); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  // Invocation is const like std::function's: the stored callable itself
  // may be mutable.
  alignas(kAlign) mutable std::byte storage_[Capacity];
  const Ops* ops_ = nullptr;
};

/// The engine's event callback: sized so that every event lambda scheduled
/// by src/ucx, src/core and src/converse fits inline (144 bytes: an
/// arrival capture, `Worker::Incoming` plus the worker pointer, with room to
/// spare; worker.hpp checks that budget at compile time).
using SmallFn = InlineFn<void(), 144>;

}  // namespace cux::sim
