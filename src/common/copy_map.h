// CopyTable<T>: an open-addressing hash table keyed by CopyId, built for
// the per-copy queue state of the data-site backends. Compared to
// std::unordered_map it removes the per-node allocation and pointer chase
// on every queue lookup: the index is a flat power-of-two probe array of
// 16-byte slots (packed key + node id), and values live in a stable,
// insertion-ordered node arena, so references returned by GetOrCreate()
// survive later inserts and rehashes.
//
// Iteration walks the arena in insertion order — deterministic across
// runs and platforms, unlike unordered_map's bucket order, which keeps
// wait-for-graph snapshots and debug dumps reproducible.
//
// Erase is deliberately unsupported: insertion indices order wait-for
// snapshots (LiveQueueIndex below), so a copy's queue state lives for the
// whole run. An owner whose values hold buffers returns an emptied value's
// buffer to a free list of its own (UnifiedQueueManager does), so memory
// follows the values in use, not every copy ever touched.
#ifndef UNICC_COMMON_COPY_MAP_H_
#define UNICC_COMMON_COPY_MAP_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.h"

namespace unicc {

template <typename T>
class CopyTable {
 public:
  struct Node {
    CopyId key;
    T value;
  };

  CopyTable() = default;

  std::size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  // Returns the value for `key`, default-constructing it on first use.
  // The reference is stable across later inserts.
  T& GetOrCreate(const CopyId& key) { return nodes_[IndexOf(key)].value; }

  // The insertion index of `key`'s node (0 for the first key ever
  // created), creating the node on first use.
  std::uint32_t IndexOf(const CopyId& key) {
    if (slots_.empty()) Rehash(kInitialSlots);
    const std::uint64_t packed = Pack(key);
    const std::uint64_t mask = slots_.size() - 1;
    std::size_t i = Mix(packed) & mask;
    for (;;) {
      Slot& s = slots_[i];
      if (s.node == kNone) {
        if ((nodes_.size() + 1) * 4 > slots_.size() * 3) {
          Rehash(slots_.size() * 2);
          return IndexOf(key);  // one level deep: table now has room
        }
        s.key = packed;
        s.node = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back(Node{key, T{}});
        return s.node;
      }
      if (s.key == packed) return s.node;
      i = (i + 1) & mask;
    }
  }

  // The node at insertion index `index` (< size()).
  const Node& At(std::uint32_t index) const { return nodes_[index]; }
  Node& At(std::uint32_t index) { return nodes_[index]; }

  const T* Find(const CopyId& key) const {
    if (slots_.empty()) return nullptr;
    const std::uint64_t packed = Pack(key);
    const std::uint64_t mask = slots_.size() - 1;
    std::size_t i = Mix(packed) & mask;
    for (;;) {
      const Slot& s = slots_[i];
      if (s.node == kNone) return nullptr;
      if (s.key == packed) return &nodes_[s.node].value;
      i = (i + 1) & mask;
    }
  }
  T* Find(const CopyId& key) {
    return const_cast<T*>(static_cast<const CopyTable*>(this)->Find(key));
  }

  // Insertion-ordered iteration over (key, value) nodes.
  auto begin() const { return nodes_.begin(); }
  auto end() const { return nodes_.end(); }
  auto begin() { return nodes_.begin(); }
  auto end() { return nodes_.end(); }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t node = kNone;
  };

  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::size_t kInitialSlots = 16;

  static std::uint64_t Pack(const CopyId& c) {
    return (static_cast<std::uint64_t>(c.item) << 32) | c.site;
  }

  // splitmix64 finalizer: cheap, and far better dispersion over
  // (item, site) pairs than the shift-xor hash std::hash<CopyId> uses.
  static std::uint64_t Mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  void Rehash(std::size_t new_size) {
    slots_.assign(new_size, Slot{});
    const std::uint64_t mask = new_size - 1;
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      const std::uint64_t packed = Pack(nodes_[n].key);
      std::size_t i = Mix(packed) & mask;
      while (slots_[i].node != kNone) i = (i + 1) & mask;
      slots_[i].key = packed;
      slots_[i].node = static_cast<std::uint32_t>(n);
    }
  }

  std::vector<Slot> slots_;  // power-of-two probe array
  std::deque<Node> nodes_;   // stable value storage, insertion order
};

// The insertion indices of a CopyTable's non-empty queues, so a wait-for
// snapshot walks the queues that hold entries now instead of every queue
// ever touched. The owner lists a queue whenever it inserts an entry;
// Live() unlists the queues that have emptied since and returns the rest
// in ascending insertion order, the order a full walk of the table visits
// them in. Edges therefore come out exactly as a full walk emits them.
//
// The listed flags live here as a bitmap, not in the queues, so the index
// adds one bit per queue ever touched plus four bytes per listed queue.
class LiveQueueIndex {
 public:
  // Lists the queue at insertion index `index`; a no-op if it is listed.
  void List(std::uint32_t index) {
    if (index >= listed_.size()) listed_.resize(index + 1);
    if (listed_[index]) return;
    listed_[index] = true;
    live_.push_back(index);
  }

  // Unlists every listed queue for which is_empty(index) holds and returns
  // the others, ascending. The reference is valid until the next call.
  template <typename IsEmptyFn>
  const std::vector<std::uint32_t>& Live(IsEmptyFn&& is_empty) {
    std::size_t kept = 0;
    for (const std::uint32_t index : live_) {
      if (is_empty(index)) {
        listed_[index] = false;
      } else {
        live_[kept++] = index;
      }
    }
    live_.resize(kept);
    std::sort(live_.begin(), live_.end());
    return live_;
  }

 private:
  std::vector<bool> listed_;          // by insertion index
  std::vector<std::uint32_t> live_;   // listed indices, unordered
};

}  // namespace unicc

#endif  // UNICC_COMMON_COPY_MAP_H_
