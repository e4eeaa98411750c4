#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

/// \file matcher.hpp
/// TagMatcher: the posted/unexpected matcher of ucx::Worker and ampi::World
/// (docs/architecture.md, "Tag-matching engine"), and their Resequencer.

namespace cux::sim {

/// SplitMix64 finalizer: distributes structured keys (machine tags pack
/// MSG|PE|CNT bit fields) across buckets.
[[nodiscard]] constexpr std::uint64_t mixKey(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Occupancy and search work of one matcher, or of many merged. Bucket and
/// chain figures cover the exact posted store and the unexpected store.
struct MatchStats {
  std::size_t posted = 0;
  std::size_t unexpected = 0;
  std::size_t posted_hwm = 0;  ///< most receives ever posted at once
  std::size_t unexpected_hwm = 0;
  std::size_t posted_buckets = 0;
  std::size_t unexpected_buckets = 0;
  std::size_t posted_max_chain = 0;
  std::size_t unexpected_max_chain = 0;
  std::uint64_t scan_steps = 0;

  /// Sums counts and work; watermarks and chains take the larger.
  void merge(const MatchStats& o) noexcept {
    posted += o.posted;
    unexpected += o.unexpected;
    posted_hwm = std::max(posted_hwm, o.posted_hwm);
    unexpected_hwm = std::max(unexpected_hwm, o.unexpected_hwm);
    posted_buckets += o.posted_buckets;
    unexpected_buckets += o.unexpected_buckets;
    posted_max_chain = std::max(posted_max_chain, o.posted_max_chain);
    unexpected_max_chain = std::max(unexpected_max_chain, o.unexpected_max_chain);
    scan_steps += o.scan_steps;
  }
};

/// Refuses, before any byte moves, a message of `bytes` matched to a receive
/// of `capacity` bytes that it would overrun. `who` names the layer.
inline void checkFits(const char* who, std::uint64_t bytes, std::uint64_t capacity) {
  if (bytes > capacity) {
    throw std::length_error(std::string(who) + ": message of " + std::to_string(bytes) +
                            " bytes truncated by a " + std::to_string(capacity) +
                            "-byte receive buffer");
  }
}

namespace detail {

/// BucketFifo<T>: a hash-bucketed FIFO store for tag-matching engines.
///
/// Real UCX (and the MPI runtimes layered on it) hash-buckets exact-tag
/// matching because the posted/unexpected queues are the per-message hot
/// path. This container provides exactly the operations those matchers need:
///
///  * push(key, seq, value)      append; FIFO within the key's hash chain
///                               AND within a global insertion-order list
///  * findChain(key, pred)       earliest entry whose key hashes with `key`
///                               and satisfies `pred` — O(1) expected
///  * findOrdered(pred)          earliest entry overall satisfying `pred` —
///                               the wildcard path, O(live entries)
///  * take(slot)                 O(1) unlink by slot id (match)
///
/// Entries live in a slab (std::vector) recycled through a free list, so the
/// steady state performs no heap allocation: push reuses a free slot, take
/// returns it. Slot ids stay valid until taken (slab growth moves nodes but
/// ids are indices, not pointers). Hash collisions of distinct keys share a
/// chain; callers filter with `pred` (exact field compare), so a colliding
/// or even degenerate hash affects only speed, never matching semantics.
///
/// Rehash doubles the (power-of-two) bucket table when the live count
/// exceeds 2x the bucket count and relinks chains by walking the global
/// order list, which preserves per-key FIFO order exactly.
template <typename T>
class BucketFifo {
 public:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t highWatermark() const noexcept { return hwm_; }
  [[nodiscard]] std::size_t bucketCount() const noexcept { return heads_.size(); }
  /// Node visits across all findChain/findOrdered/takeIf calls — the
  /// matcher's total scan work. Tests assert O(1) behaviour on this counter.
  [[nodiscard]] std::uint64_t scanSteps() const noexcept { return scan_steps_; }
  /// Longest collision chain right now (diagnostics; walks the table).
  [[nodiscard]] std::size_t maxChainLength() const {
    std::size_t best = 0;
    for (std::uint32_t head : heads_) {
      std::size_t len = 0;
      for (std::uint32_t s = head; s != kNil; s = nodes_[s].chain_next) ++len;
      if (len > best) best = len;
    }
    return best;
  }

  /// Appends `value` under `key`. `seq` is the caller's arbitration sequence
  /// number (exposed through seqOf); FIFO order is structural, not seq-based.
  void push(std::uint64_t key, std::uint64_t seq, T value) {
    if (heads_.empty()) growTable(kInitialBuckets);
    if (size_ + 1 > heads_.size() * 2) growTable(heads_.size() * 2);
    std::uint32_t slot;
    if (free_head_ != kNil) {
      slot = free_head_;
      free_head_ = nodes_[slot].chain_next;
      nodes_[slot].value = std::move(value);
    } else {
      slot = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{std::move(value)});
    }
    Node& n = nodes_[slot];
    n.key = key;
    n.seq = seq;
    n.bucket = bucketOf(key);
    linkChainTail(slot);
    linkOrderTail(slot);
    ++size_;
    if (size_ > hwm_) hwm_ = size_;
  }

  /// Earliest (FIFO) entry whose key hashed into `key`'s bucket and whose
  /// value satisfies `pred`; kNil if none. Expected O(1 + collisions).
  template <typename Pred>
  [[nodiscard]] std::uint32_t findChain(std::uint64_t key, Pred&& pred) const {
    if (heads_.empty()) return kNil;
    for (std::uint32_t s = heads_[bucketOf(key)]; s != kNil; s = nodes_[s].chain_next) {
      ++scan_steps_;
      if (pred(nodes_[s].value)) return s;
    }
    return kNil;
  }

  /// Earliest (global insertion order) entry satisfying `pred`; kNil if
  /// none. This is the wildcard-mask path: O(live entries).
  template <typename Pred>
  [[nodiscard]] std::uint32_t findOrdered(Pred&& pred) const {
    for (std::uint32_t s = ord_head_; s != kNil; s = nodes_[s].ord_next) {
      ++scan_steps_;
      if (pred(nodes_[s].value)) return s;
    }
    return kNil;
  }

  /// Moves every entry satisfying `pred` into `out`, in insertion order.
  template <typename Pred>
  void takeIf(Pred&& pred, std::vector<T>& out) {
    for (std::uint32_t s = ord_head_; s != kNil;) {
      ++scan_steps_;
      const std::uint32_t next = nodes_[s].ord_next;
      if (pred(nodes_[s].value)) out.push_back(take(s));
      s = next;
    }
  }

  [[nodiscard]] std::uint64_t seqOf(std::uint32_t slot) const { return nodes_[slot].seq; }

  /// Moves the value out and erases the slot in O(1).
  [[nodiscard]] T take(std::uint32_t slot) {
    T v = std::move(nodes_[slot].value);
    Node& n = nodes_[slot];
    unlinkChain(slot);
    unlinkOrder(slot);
    n.value = T{};  // release payload-owned resources immediately
    n.chain_next = free_head_;
    free_head_ = slot;
    --size_;
    return v;
  }

 private:
  /// First table: small, because most stores hold a handful of entries (an
  /// AMPI rank's matcher sees at most its six halo peers); the doubling rule
  /// grows the busy ones.
  static constexpr std::size_t kInitialBuckets = 8;

  struct Node {
    T value{};
    std::uint64_t key = 0;
    std::uint64_t seq = 0;
    std::uint32_t bucket = kNil;
    std::uint32_t chain_prev = kNil, chain_next = kNil;
    std::uint32_t ord_prev = kNil, ord_next = kNil;
  };

  [[nodiscard]] std::uint32_t bucketOf(std::uint64_t key) const noexcept {
    return static_cast<std::uint32_t>(mixKey(key) & (heads_.size() - 1));
  }

  void linkChainTail(std::uint32_t slot) {
    Node& n = nodes_[slot];
    n.chain_prev = tails_[n.bucket];
    n.chain_next = kNil;
    if (n.chain_prev != kNil) {
      nodes_[n.chain_prev].chain_next = slot;
    } else {
      heads_[n.bucket] = slot;
    }
    tails_[n.bucket] = slot;
  }

  void unlinkChain(std::uint32_t slot) {
    Node& n = nodes_[slot];
    if (n.chain_prev != kNil) {
      nodes_[n.chain_prev].chain_next = n.chain_next;
    } else {
      heads_[n.bucket] = n.chain_next;
    }
    if (n.chain_next != kNil) {
      nodes_[n.chain_next].chain_prev = n.chain_prev;
    } else {
      tails_[n.bucket] = n.chain_prev;
    }
  }

  void linkOrderTail(std::uint32_t slot) {
    Node& n = nodes_[slot];
    n.ord_prev = ord_tail_;
    n.ord_next = kNil;
    if (ord_tail_ != kNil) {
      nodes_[ord_tail_].ord_next = slot;
    } else {
      ord_head_ = slot;
    }
    ord_tail_ = slot;
  }

  void unlinkOrder(std::uint32_t slot) {
    Node& n = nodes_[slot];
    if (n.ord_prev != kNil) {
      nodes_[n.ord_prev].ord_next = n.ord_next;
    } else {
      ord_head_ = n.ord_next;
    }
    if (n.ord_next != kNil) {
      nodes_[n.ord_next].ord_prev = n.ord_prev;
    } else {
      ord_tail_ = n.ord_prev;
    }
  }

  void growTable(std::size_t buckets) {
    heads_.assign(buckets, kNil);
    tails_.assign(buckets, kNil);
    // Relink chains by walking the global order list: per-key FIFO order is
    // a sub-order of global insertion order, so it survives the rehash.
    for (std::uint32_t s = ord_head_; s != kNil; s = nodes_[s].ord_next) {
      nodes_[s].bucket = bucketOf(nodes_[s].key);
      linkChainTail(s);
    }
  }

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> heads_, tails_;
  std::uint32_t free_head_ = kNil;
  std::uint32_t ord_head_ = kNil, ord_tail_ = kNil;
  std::size_t size_ = 0;
  std::size_t hwm_ = 0;
  mutable std::uint64_t scan_steps_ = 0;
};

}  // namespace detail

/// Semantics of one post-ordered scan of posted receives and one
/// arrival-ordered scan of unexpected messages. A caller supplies only its
/// key function and match predicate, as members: `Posted::exact()` (can only
/// match its own key), `Posted::matchKey()`, `Arrived::matchKey()` and
/// `Posted::matches(const Arrived&)`, which must imply equal keys when exact.
template <typename Posted, typename Arrived>
class TagMatcher {
 public:
  /// Removes and returns the earliest-arrived unexpected match of `want`.
  [[nodiscard]] std::optional<Arrived> takeUnexpected(const Posted& want) {
    const std::uint32_t hit = findUnexpected(want);
    if (hit == kNil) return std::nullopt;
    return unexpected_.take(hit);
  }

  /// Posts `want` behind every earlier receive.
  void post(Posted want) {
    const bool exact = want.exact();
    const std::uint64_t key = exact ? want.matchKey() : 0;
    (exact ? exact_ : wild_).push(key, seq_++, std::move(want));
    posted_hwm_ = std::max(posted_hwm_, exact_.size() + wild_.size());
  }

  /// Removes and returns the earliest-posted receive `msg` matches, if any.
  [[nodiscard]] std::optional<Posted> takePosted(const Arrived& msg) {
    const auto pred = [&msg](const Posted& p) { return p.matches(msg); };
    const std::uint32_t ex = exact_.findChain(msg.matchKey(), pred);
    const std::uint32_t wi = wild_.findOrdered(pred);
    if (ex == kNil && wi == kNil) return std::nullopt;
    const bool exact_wins = ex != kNil && (wi == kNil || exact_.seqOf(ex) < wild_.seqOf(wi));
    return exact_wins ? exact_.take(ex) : wild_.take(wi);
  }

  /// Queues `msg` behind every earlier unexpected arrival.
  void pushUnexpected(Arrived msg) {
    const std::uint64_t key = msg.matchKey();
    unexpected_.push(key, 0, std::move(msg));
  }

  /// Failure sweep: removes every posted receive satisfying `recv_pred` (the
  /// exact store's in post order, then the wildcard store's) and every
  /// unexpected message satisfying `msg_pred` (in arrival order).
  template <typename RecvPred, typename MsgPred>
  [[nodiscard]] std::pair<std::vector<Posted>, std::vector<Arrived>> harvest(
      RecvPred&& recv_pred, MsgPred&& msg_pred) {
    std::pair<std::vector<Posted>, std::vector<Arrived>> out;
    exact_.takeIf(recv_pred, out.first);
    wild_.takeIf(recv_pred, out.first);
    unexpected_.takeIf(msg_pred, out.second);
    return out;
  }

  /// Calls `fn(const Arrived&)` on every unexpected message in arrival
  /// order, removing none. `fn` must not modify this matcher.
  template <typename Fn>
  void forEachUnexpected(Fn&& fn) const {
    (void)unexpected_.findOrdered([&fn](const Arrived& m) {
      fn(m);
      return false;
    });
  }

  [[nodiscard]] MatchStats stats() const {
    MatchStats s;
    s.posted = exact_.size() + wild_.size();
    s.unexpected = unexpected_.size();
    s.posted_hwm = posted_hwm_;
    s.unexpected_hwm = unexpected_.highWatermark();
    s.posted_buckets = exact_.bucketCount();
    s.unexpected_buckets = unexpected_.bucketCount();
    s.posted_max_chain = exact_.maxChainLength();
    s.unexpected_max_chain = unexpected_.maxChainLength();
    s.scan_steps = exact_.scanSteps() + wild_.scanSteps() + unexpected_.scanSteps();
    return s;
  }

 private:
  template <typename T>
  using Store = detail::BucketFifo<T>;
  static constexpr std::uint32_t kNil = Store<Posted>::kNil;

  [[nodiscard]] std::uint32_t findUnexpected(const Posted& want) const {
    const auto pred = [&want](const Arrived& m) { return want.matches(m); };
    return want.exact() ? unexpected_.findChain(want.matchKey(), pred)
                        : unexpected_.findOrdered(pred);
  }

  Store<Posted> exact_;  ///< hashed by key, FIFO per key
  Store<Posted> wild_;   ///< post order only
  Store<Arrived> unexpected_;  ///< hashed by key and threaded in arrival order
  std::uint64_t seq_ = 0;  ///< post order across both posted stores
  std::size_t posted_hwm_ = 0;
};

/// A sequence counter per peer, held only for the peers named so far: a
/// sorted (peer, counter) list, so a rank that talks to k of N peers keeps k
/// entries instead of N. Lookup is a binary search; a new peer inserts in
/// O(k). Nothing is allocated before the first peer is named.
class PeerSeq {
 public:
  /// The counter of `peer`; 0 the first time `peer` is named. The reference
  /// lasts until another peer is named for the first time.
  [[nodiscard]] std::uint32_t& operator[](std::size_t peer) {
    auto it = std::lower_bound(entries_.begin(), entries_.end(), peer,
                               [](const Entry& e, std::size_t p) { return e.peer < p; });
    if (it == entries_.end() || it->peer != peer) it = entries_.insert(it, Entry{peer, 0});
    return it->next;
  }

 private:
  struct Entry {
    std::size_t peer;
    std::uint32_t next;
  };
  std::vector<Entry> entries_;  ///< sorted by peer
};

/// Restores each source's send order (items numbered 0, 1, 2, ...) when
/// eager and rendezvous paths overtake each other. Sources are any ids; state
/// is kept only for the sources seen so far.
template <typename T>
class Resequencer {
 public:
  /// Delivers item `seq` of `src`, then its stashed successors, through
  /// `deliver(T&&)`; stashes it while an earlier item of `src` is missing.
  template <typename Fn>
  void push(std::size_t src, std::uint32_t seq, T item, Fn&& deliver) {
    if (seq != expected_[src]) {
      out_of_order_.push_back(Stashed{src, seq, std::move(item)});
      return;
    }
    for (;;) {
      ++expected_[src];
      deliver(std::move(item));
      // Looked up again: `deliver` may have named a new source or pushed.
      const std::uint32_t next = expected_[src];
      auto it = std::find_if(out_of_order_.begin(), out_of_order_.end(),
                             [&](const Stashed& s) { return s.src == src && s.seq == next; });
      if (it == out_of_order_.end()) return;
      item = std::move(it->item);
      out_of_order_.erase(it);
    }
  }

  /// Removes and returns every stashed item, in stash order.
  [[nodiscard]] std::vector<T> takeStashed() {
    std::vector<T> out;
    for (Stashed& s : out_of_order_) out.push_back(std::move(s.item));
    out_of_order_.clear();
    return out;
  }

 private:
  struct Stashed {
    std::size_t src;
    std::uint32_t seq;
    T item;
  };
  PeerSeq expected_;                   ///< per source: next in-order seq
  std::vector<Stashed> out_of_order_;  ///< early items of every source
};

}  // namespace cux::sim
