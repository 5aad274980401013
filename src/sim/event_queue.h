/**
 * @file
 * Discrete-event queue: the heart of the simulated substrate.
 *
 * Events are (time, sequence, callback) triples; ties in time break by
 * insertion order so the simulation is deterministic.
 *
 * Hot-path design (the simulator fires one event per kernel quantum per
 * GPU, so this layer dominates large runs):
 *  - Callbacks live in `EventCallback`, a move-only small-buffer type:
 *    captures up to kInlineCapacity bytes never touch the heap.
 *  - Event records are pooled in a slab with a free list; a cancelled
 *    event is tombstoned in O(1) (its callback is destroyed immediately)
 *    and its slot is recycled when the heap entry surfaces.
 *  - The priority queue is a 4-ary implicit heap of 16-byte PODs
 *    (when + packed seq/slot), so sift operations stay inside one or two
 *    cache lines and never move callbacks.
 *
 * Recurring sources: a stream that always posts its own successor (an
 * open-loop arrival stream) registers once with AddSource and then
 * re-arms with ArmSource. Its callback is stored once; its next firing
 * is a node in a second 4-ary heap whose head is merged with the main
 * heap's head under the same (when, seq) rule, seq drawn from the one
 * counter at the moment of arming. So a source fires exactly where an
 * event posted at the same moment would have fired, and a source that
 * re-arms from its own callback costs one sift-down of the heap top
 * instead of a slot, two callback moves, a pop and a push.
 *
 * Complexity: ScheduleAt/ArmSource/RunOne are O(log4 n); Cancel is
 * O(1). All are allocation-free in steady state (slab and heap storage
 * is reused once warmed up; only growth beyond the high-water mark
 * allocates).
 */
#ifndef DILU_SIM_EVENT_QUEUE_H_
#define DILU_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace dilu::sim {

/**
 * Move-only callable with small-buffer optimization.
 *
 * Callables whose size is at most kInlineCapacity (and whose alignment
 * fits std::max_align_t) are stored inline; larger ones fall back to a
 * single heap allocation. Invoking an empty/moved-from callback is
 * undefined behavior (it dereferences a null ops table); the queue
 * never invokes a record it has not just armed.
 */
class EventCallback {
 public:
  /** Capture budget that stays heap-free (see the zero-alloc test). */
  static constexpr std::size_t kInlineCapacity = 48;

  EventCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback>>>
  EventCallback(F&& f)  // NOLINT(google-explicit-constructor)
  {
    Emplace(std::forward<F>(f));
  }

  EventCallback(EventCallback&& other) noexcept { MoveFrom(other); }

  EventCallback& operator=(EventCallback&& other) noexcept
  {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { Reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

  /** Destroy the held callable (if any); leaves the callback empty. */
  void Reset()
  {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*move)(void* dst, void* src);  ///< relocate: construct + destroy
    void (*destroy)(void*);
  };

  template <typename Fn>
  struct InlineOps {
    static void Invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void Move(void* dst, void* src)
    {
      ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
      static_cast<Fn*>(src)->~Fn();
    }
    static void Destroy(void* p) { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops ops{&Invoke, &Move, &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* Get(const void* p)
    {
      Fn* f;
      std::memcpy(&f, p, sizeof(f));
      return f;
    }
    static void Invoke(void* p) { (*Get(p))(); }
    static void Move(void* dst, void* src)
    {
      std::memcpy(dst, src, sizeof(Fn*));
    }
    static void Destroy(void* p) { delete Get(p); }
    static constexpr Ops ops{&Invoke, &Move, &Destroy};
  };

  template <typename F>
  void Emplace(F&& f)
  {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCapacity
                  && alignof(Fn) <= alignof(std::max_align_t)
                  && std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      Fn* heap = new Fn(std::forward<F>(f));
      std::memcpy(storage_, &heap, sizeof(heap));
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  void MoveFrom(EventCallback& other) noexcept
  {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->move(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

/** Callback invoked when an event fires. */
using EventFn = EventCallback;

/** Handle used to cancel a scheduled event. */
using EventId = std::uint64_t;

/** Handle of a recurring source (EventQueue::AddSource). */
using SourceId = std::uint32_t;

/**
 * A deterministic discrete-event priority queue.
 *
 * Not thread-safe: each simulation is single-threaded by design, the
 * determinism contract of docs/STATIC_ANALYSIS.md; sharded runs give
 * every shard its own queue (docs/PARALLELISM.md).
 */
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /** Current simulated time. */
  TimeUs now() const { return now_; }

  /**
   * Schedule `fn` to run at absolute time `when` (>= now).
   * @return an id usable with Cancel().
   */
  EventId ScheduleAt(TimeUs when, EventFn fn);

  /** Schedule `fn` to run `delay` after the current time. */
  EventId ScheduleAfter(TimeUs delay, EventFn fn);

  /**
   * Cancel a pending event in O(1). Cancelling a fired, cancelled or
   * never-issued id is a no-op (the id's generation no longer matches).
   * The callback is destroyed immediately; the pooled record is
   * recycled when its heap entry surfaces (lazy tombstone reclaim).
   */
  void Cancel(EventId id);

  /**
   * Register a recurring source: `fn` fires once per ArmSource. The
   * source starts disarmed and lives as long as the queue.
   */
  SourceId AddSource(EventFn fn);

  /**
   * Arm source `id` to fire at `when` (>= now). The source must be
   * disarmed: a source disarms as it fires, so its own callback may
   * re-arm it (the cheap case). Ties order exactly as a ScheduleAt
   * made at this moment would.
   */
  void ArmSource(SourceId id, TimeUs when);

  /** True when no runnable events remain (armed sources count). */
  bool Empty() const { return live_count_ == 0; }

  /** Fire the next event; returns false if the queue is empty. */
  bool RunOne();

  /**
   * Run events until the queue empties or the next event is after
   * `deadline`; time is then advanced to exactly `deadline`.
   */
  void RunUntil(TimeUs deadline);

  /** Number of pending (non-cancelled) events and armed sources. */
  std::size_t PendingCount() const { return live_count_; }

  /**
   * Number of pooled event records ever allocated (the slab high-water
   * mark). Exposed so tests can assert slot reuse: steady-state
   * schedule/fire/cancel traffic must not grow the slab.
   */
  std::size_t SlabSize() const { return records_.size(); }

 private:
  // Heap entries pack the tie-breaking sequence number and the slab
  // slot into one word: seq in the high bits makes (when, key) ordering
  // equal to (when, seq) ordering, and the low bits recover the slot.
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint32_t kNoFreeSlot = 0xFFFFFFFFu;

  struct HeapNode {
    TimeUs when;
    std::uint64_t key;  ///< (seq << kSlotBits) | slot

    bool operator<(const HeapNode& o) const
    {
      if (when != o.when) return when < o.when;
      return key < o.key;
    }
  };
  static_assert(sizeof(HeapNode) == 16, "heap nodes must stay 16 bytes");

  struct Record {
    EventCallback fn;
    std::uint32_t generation = 1;  ///< bumped when the slot is recycled
    std::uint32_t next_free = kNoFreeSlot;
    bool armed = false;  ///< false = tombstone (cancelled) or fired
  };

  struct Source {
    /** Boxed so the callable stays put while it runs, even if it adds
     *  sources (which may reallocate sources_). */
    std::unique_ptr<EventCallback> fn;
    bool armed = false;
  };

  friend class EventQueueTestPeer;

  std::uint32_t AllocSlot();
  void FreeSlot(std::uint32_t slot);
  static void HeapPush(std::vector<HeapNode>& heap, HeapNode node);
  static HeapNode HeapPop(std::vector<HeapNode>& heap);
  /** Sift `node` down from the root of `heap` (whose top it replaces). */
  static void SiftDown(std::vector<HeapNode>& heap, HeapNode node);
  /** The tie-break seq for an event or source armed now. */
  std::uint64_t NextSeq();
  /** Compact sequence numbers when the 40-bit space is exhausted. */
  void RenumberSeqs();
  /** Drop the firing source's stale node from the top of sources_heap_. */
  void SettleFiring();
  /**
   * Reclaim tombstones at the main heap's head, then return the
   * earlier of the two heads (nullptr when nothing is pending);
   * `*source` says which heap holds it.
   */
  const HeapNode* PeekNext(bool* source);
  void FireEvent();
  void FireSource();

  std::vector<HeapNode> heap_;    ///< 4-ary implicit min-heap
  std::vector<Record> records_;   ///< slab of pooled event records
  std::uint32_t free_head_ = kNoFreeSlot;
  /** Armed sources' next firings; key = (seq << kSlotBits) | source. */
  std::vector<HeapNode> sources_heap_;
  std::vector<Source> sources_;
  /**
   * While a source's callback runs, its spent node stays on top of
   * sources_heap_ (every other node sorts after it) so a re-arm can
   * replace it in place; this flag is true until it is replaced or
   * dropped, and the node counts as absent meanwhile.
   */
  bool firing_in_heap_ = false;
  SourceId firing_ = 0;
  std::size_t live_count_ = 0;
  TimeUs now_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dilu::sim

#endif  // DILU_SIM_EVENT_QUEUE_H_
