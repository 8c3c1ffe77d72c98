// EventFn: a move-only `void()` callable with small-buffer optimization,
// built for the simulator's hot path. Callables whose size fits the inline
// buffer (and that are nothrow-move-constructible) are stored in place, so
// scheduling an event performs no heap allocation; larger callables fall
// back to the heap transparently. Unlike std::function there is no copy
// support, no RTTI and no target() — just construct, move, invoke.
#ifndef UNICC_COMMON_EVENT_FN_H_
#define UNICC_COMMON_EVENT_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace unicc {

class EventFn {
 public:
  // Sized for the engine's real captures: a this-pointer plus a couple of
  // ids (the transport delivers messages by pooled index, not by value).
  // 24 bytes keeps the simulator's Slot (callback, queue key and links)
  // at one 64-byte cache line, so the arena stays cache-resident under
  // load.
  static constexpr std::size_t kInlineSize = 24;

  EventFn() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors
                    // std::function's converting constructor.
    Emplace(std::forward<F>(f));
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  // Constructs a callable directly in this object's storage, skipping the
  // move a `fn = EventFn(f)` round-trip would cost on the hot path.
  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  void Emplace(F&& f) {
    Reset();
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  // Destroys the stored callable (releasing its captures) and empties.
  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  void operator()() {
    UNICC_CHECK_MSG(ops_ != nullptr, "invoking an empty EventFn");
    ops_->invoke(buf_);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // True when a callable of type F would be stored inline (introspection
  // for tests and allocation audits).
  template <typename F>
  static constexpr bool stores_inline() {
    return fits_inline<std::decay_t<F>>;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs into `dst` from `src` and destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineSize && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  template <typename F>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*static_cast<F*>(s))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) F(std::move(*static_cast<F*>(src)));
        static_cast<F*>(src)->~F();
      },
      [](void* s) noexcept { static_cast<F*>(s)->~F(); },
  };

  template <typename F>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**static_cast<F**>(s))(); },
      [](void* dst, void* src) noexcept {
        *static_cast<F**>(dst) = *static_cast<F**>(src);
      },
      [](void* s) noexcept { delete *static_cast<F**>(s); },
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace unicc

#endif  // UNICC_COMMON_EVENT_FN_H_
