// Physical value storage for one data site: a map from copies to 64-bit
// values. Values default to zero; writes install at lock-release (2PL/PA) or
// semi-lock-transform (T/O) time per the paper's "implemented" definition.
//
// The map is an open-addressing table in the style of CopyTable (flat
// power-of-two probe array of 16-byte slots, packed CopyId keys,
// splitmix64-mixed linear probing) rather than std::unordered_map: the
// store sits on every backend's grant/release path, and the flat layout
// removes the per-node allocation and pointer chase of the node-based
// map. Erase is unsupported — a written copy's value lives for the whole
// run — which keeps probing tombstone-free.
#ifndef UNICC_STORAGE_STORE_H_
#define UNICC_STORAGE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace unicc {

class Store {
 public:
  // Reads the current value of a copy (0 if never written).
  std::uint64_t Read(const CopyId& copy) const {
    const std::uint64_t packed = Pack(copy);
    if (packed == kEmptyKey) return escape_set_ ? escape_value_ : 0;
    if (slots_.empty()) return 0;
    const std::uint64_t mask = slots_.size() - 1;
    std::size_t i = Mix(packed) & mask;
    for (;;) {
      const Slot& s = slots_[i];
      if (s.key == kEmptyKey) return 0;
      if (s.key == packed) return s.value;
      i = (i + 1) & mask;
    }
  }

  // Installs `value` at `copy`.
  void Write(const CopyId& copy, std::uint64_t value) {
    const std::uint64_t packed = Pack(copy);
    if (packed == kEmptyKey) {
      // The all-ones CopyId packs to the empty-slot sentinel; it gets a
      // dedicated escape slot instead of a probe-array entry.
      escape_set_ = true;
      escape_value_ = value;
      return;
    }
    if (slots_.empty()) Rehash(kInitialSlots);
    const std::uint64_t mask = slots_.size() - 1;
    std::size_t i = Mix(packed) & mask;
    for (;;) {
      Slot& s = slots_[i];
      if (s.key == packed) {
        s.value = value;
        return;
      }
      if (s.key == kEmptyKey) {
        if ((size_ + 1) * 4 > slots_.size() * 3) {
          Rehash(slots_.size() * 2);
          Write(copy, value);  // one level deep: table now has room
          return;
        }
        s.key = packed;
        s.value = value;
        ++size_;
        return;
      }
      i = (i + 1) & mask;
    }
  }

  // Number of copies ever written.
  std::size_t WrittenCopies() const {
    return size_ + (escape_set_ ? 1 : 0);
  }

  // Calls fn(copy, value) once per written copy, escape slot included, in
  // probe-array order. O(capacity), independent of the keyspace.
  template <typename Fn>
  void ForEachWritten(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey) fn(Unpack(s.key), s.value);
    }
    if (escape_set_) fn(Unpack(kEmptyKey), escape_value_);
  }

 private:
  struct Slot {
    std::uint64_t key = kEmptyKey;
    std::uint64_t value = 0;
  };

  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  static constexpr std::size_t kInitialSlots = 16;

  static std::uint64_t Pack(const CopyId& c) {
    return (static_cast<std::uint64_t>(c.item) << 32) | c.site;
  }
  static CopyId Unpack(std::uint64_t packed) {
    return CopyId{static_cast<ItemId>(packed >> 32),
                  static_cast<SiteId>(packed & 0xffffffffu)};
  }

  // splitmix64 finalizer (same dispersion rationale as CopyTable).
  static std::uint64_t Mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  void Rehash(std::size_t new_size);

  std::vector<Slot> slots_;  // power-of-two probe array
  std::size_t size_ = 0;     // occupied probe-array slots
  bool escape_set_ = false;  // the all-ones CopyId, kept off the array
  std::uint64_t escape_value_ = 0;
};

}  // namespace unicc

#endif  // UNICC_STORAGE_STORE_H_
