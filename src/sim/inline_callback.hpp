// Small-buffer-optimized move-only callables for the simulation hot path.
//
// Every simulated behaviour is a scheduled closure, so the cost of one
// std::function heap allocation per event is the dominant simulator-host
// overhead (see docs/performance.md). InlineFunction stores the callable
// inside the object when it fits the inline budget and is nothrow-move-
// constructible; larger or throwing-move callables fall back to a single
// heap cell, preserving correctness for cold paths. Unlike std::function
// it is move-only, so captures may own resources (PacketPtr, vectors)
// without refcount or clone machinery.
//
// The default inline budget, 64 bytes, is chosen so the closures the
// packet path schedules never allocate: a link delivery (this, peer,
// port, frame bytes, PacketPtr: 40 B), a PPE step or dispatch (this,
// slot: 16 B), a PPE emit (this, slot, PacketPtr, nexthop: 40 B) and a
// sync-XTXN wake-up (this, slot, issue time, op: 32 B). Each of those
// sites static_asserts that its closure is stored inline. XTXN replies
// are written by the target block at issue, so no closure carries one.
//
// An inline closure that is trivially copyable and trivially destructible,
// such as the PPE's [this, slot], has no manager: a move copies the
// inline bytes and destruction does nothing, so moving it through the
// event queue costs no indirect call.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace sim {

template <typename Signature, std::size_t InlineBytes = 64>
class InlineFunction;

template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes> {
 public:
  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
             std::is_invocable_r_v<R, std::remove_cvref_t<F>&, Args...>)
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (stores_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      invoke_ = &inline_invoke<Fn>;
      if constexpr (!std::is_trivially_copyable_v<Fn> ||
                    !std::is_trivially_destructible_v<Fn>) {
        manage_ = &inline_manage<Fn>;
      }
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = &heap_invoke<Fn>;
      manage_ = &heap_manage<Fn>;
    }
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  static constexpr std::size_t inline_capacity() { return InlineBytes; }

  /// True when a callable of type F lives in the inline storage (no heap).
  template <typename F>
  static constexpr bool stores_inline() {
    using Fn = std::remove_cvref_t<F>;
    return sizeof(Fn) <= InlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  enum class Op { kMoveTo, kDestroy };
  using Invoke = R (*)(void*, Args&&...);
  using Manage = void (*)(Op, void* self, void* dest);

  template <typename Fn>
  static R inline_invoke(void* s, Args&&... args) {
    return (*std::launder(reinterpret_cast<Fn*>(s)))(
        std::forward<Args>(args)...);
  }
  template <typename Fn>
  static void inline_manage(Op op, void* self, void* dest) {
    Fn* f = std::launder(reinterpret_cast<Fn*>(self));
    if (op == Op::kMoveTo) {
      ::new (dest) Fn(std::move(*f));
    }
    f->~Fn();
  }

  template <typename Fn>
  static R heap_invoke(void* s, Args&&... args) {
    return (**std::launder(reinterpret_cast<Fn**>(s)))(
        std::forward<Args>(args)...);
  }
  template <typename Fn>
  static void heap_manage(Op op, void* self, void* dest) {
    Fn** slot = std::launder(reinterpret_cast<Fn**>(self));
    if (op == Op::kMoveTo) {
      ::new (dest) Fn*(*slot);  // ownership transfers by pointer copy
    } else {
      delete *slot;
    }
  }

  void move_from(InlineFunction& other) noexcept {
    if (other.invoke_ == nullptr) return;
    if (other.manage_ == nullptr) {  // trivially copyable, stored inline
      std::memcpy(storage_, other.storage_, InlineBytes);
    } else {
      other.manage_(Op::kMoveTo, other.storage_, storage_);
    }
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  void reset() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, storage_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[InlineBytes];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;  // null for an empty or trivial closure
};

/// The event queue's callback type: a nullary inline closure.
using InlineCallback = InlineFunction<void()>;

}  // namespace sim
