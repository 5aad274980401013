#include "sim/event_queue.h"

#include <algorithm>

#include "common/logging.h"

namespace dilu::sim {

std::uint32_t
EventQueue::AllocSlot()
{
  if (free_head_ != kNoFreeSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = records_[slot].next_free;
    records_[slot].next_free = kNoFreeSlot;
    return slot;
  }
  DILU_CHECK(records_.size() < kSlotMask);
  records_.emplace_back();
  return static_cast<std::uint32_t>(records_.size() - 1);
}

void
EventQueue::FreeSlot(std::uint32_t slot)
{
  Record& rec = records_[slot];
  rec.fn.Reset();
  rec.armed = false;
  // A stale EventId holds the old generation, so Cancel on it misses.
  ++rec.generation;
  rec.next_free = free_head_;
  free_head_ = slot;
}

void
EventQueue::HeapPush(std::vector<HeapNode>& heap, HeapNode node)
{
  // Hole percolation: bubble an empty slot up, write the node once.
  heap.push_back(node);
  std::size_t i = heap.size() - 1;
  while (i != 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(node < heap[parent])) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = node;
}

void
EventQueue::SiftDown(std::vector<HeapNode>& heap, HeapNode node)
{
  // Move a hole down from the root, write the node once.
  const std::size_t n = heap.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = i * 4 + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child =
        first_child + 4 < n ? first_child + 4 : n;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (heap[c] < heap[best]) best = c;
    }
    if (!(heap[best] < node)) break;
    heap[i] = heap[best];
    i = best;
  }
  heap[i] = node;
}

EventQueue::HeapNode
EventQueue::HeapPop(std::vector<HeapNode>& heap)
{
  const HeapNode top = heap.front();
  const HeapNode last = heap.back();
  heap.pop_back();
  if (!heap.empty()) SiftDown(heap, last);
  return top;
}

void
EventQueue::SettleFiring()
{
  if (!firing_in_heap_) return;
  HeapPop(sources_heap_);
  firing_in_heap_ = false;
}

void
EventQueue::RenumberSeqs()
{
  // Sequence numbers only order *coexisting* events, so they can be
  // compacted whenever the 40-bit space runs out (every ~1.1e12
  // scheduled events — amortized noise). A sorted array satisfies the
  // d-ary heap property, so sorting each heap rebuilds it, and a merge
  // walk over the two sorted heaps relabels them in their joint order.
  SettleFiring();
  std::sort(heap_.begin(), heap_.end());
  std::sort(sources_heap_.begin(), sources_heap_.end());
  std::uint64_t seq = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < heap_.size() || j < sources_heap_.size()) {
    const bool main_first = j == sources_heap_.size()
        || (i < heap_.size() && heap_[i] < sources_heap_[j]);
    HeapNode& node = main_first ? heap_[i++] : sources_heap_[j++];
    node.key = (seq++ << kSlotBits) | (node.key & kSlotMask);
  }
  next_seq_ = seq;
}

std::uint64_t
EventQueue::NextSeq()
{
  // The firing source's spent node counts as absent: the path it
  // replaces had already popped the event that was firing.
  const std::size_t sources =
      sources_heap_.size() - (firing_in_heap_ ? 1 : 0);
  if (heap_.empty() && sources == 0) {
    next_seq_ = 0;  // nothing coexists: restart the tie-break counter
  } else if (next_seq_ >= (1ull << (64 - kSlotBits))) {
    RenumberSeqs();
  }
  return next_seq_++;
}

EventId
EventQueue::ScheduleAt(TimeUs when, EventFn fn)
{
  DILU_CHECK(when >= now_);
  const std::uint32_t slot = AllocSlot();
  Record& rec = records_[slot];
  rec.fn = std::move(fn);
  rec.armed = true;
  ++live_count_;
  const std::uint64_t seq = NextSeq();
  HeapPush(heap_, HeapNode{when, (seq << kSlotBits) | slot});
  return (static_cast<EventId>(rec.generation) << 32) | slot;
}

EventId
EventQueue::ScheduleAfter(TimeUs delay, EventFn fn)
{
  DILU_CHECK(delay >= 0);
  return ScheduleAt(now_ + delay, std::move(fn));
}

void
EventQueue::Cancel(EventId id)
{
  // Cancelling a fired (or never-scheduled, or already-cancelled) event
  // is a no-op: those ids carry a generation the slot no longer has (or
  // an armed == false record).
  const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const std::uint32_t generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= records_.size()) return;
  Record& rec = records_[slot];
  if (!rec.armed || rec.generation != generation) return;
  // Tombstone: release the callback now (captures may pin resources);
  // the slot itself is recycled when the heap entry surfaces.
  rec.fn.Reset();
  rec.armed = false;
  --live_count_;
}

SourceId
EventQueue::AddSource(EventFn fn)
{
  DILU_CHECK(sources_.size() < kSlotMask);
  sources_.push_back(
      Source{std::make_unique<EventCallback>(std::move(fn)), false});
  return static_cast<SourceId>(sources_.size() - 1);
}

void
EventQueue::ArmSource(SourceId id, TimeUs when)
{
  DILU_CHECK(id < sources_.size() && !sources_[id].armed);
  DILU_CHECK(when >= now_);
  sources_[id].armed = true;
  ++live_count_;
  const HeapNode node{when, (NextSeq() << kSlotBits) | id};
  if (firing_in_heap_ && id == firing_) {
    // The common case: re-arming from its own callback overwrites the
    // spent node on top of the heap.
    firing_in_heap_ = false;
    SiftDown(sources_heap_, node);
    return;
  }
  SettleFiring();
  HeapPush(sources_heap_, node);
}

const EventQueue::HeapNode*
EventQueue::PeekNext(bool* source)
{
  while (!heap_.empty()) {
    const std::uint32_t slot =
        static_cast<std::uint32_t>(heap_.front().key & kSlotMask);
    if (records_[slot].armed) break;
    HeapPop(heap_);  // tombstone: reclaim and keep looking
    FreeSlot(slot);
  }
  if (heap_.empty() && sources_heap_.empty()) return nullptr;
  // Seqs come from one counter, so the two heads never tie on key.
  *source = heap_.empty()
      || (!sources_heap_.empty() && sources_heap_.front() < heap_.front());
  return *source ? &sources_heap_.front() : &heap_.front();
}

void
EventQueue::FireEvent()
{
  const HeapNode top = HeapPop(heap_);
  const std::uint32_t slot = static_cast<std::uint32_t>(top.key & kSlotMask);
  // Move the callback out before invoking it: the callback may
  // schedule new events, which can grow (reallocate) the slab.
  EventCallback fn = std::move(records_[slot].fn);
  records_[slot].armed = false;
  --live_count_;
  FreeSlot(slot);
  now_ = top.when;
  fn();
}

void
EventQueue::FireSource()
{
  const HeapNode top = sources_heap_.front();
  firing_ = static_cast<SourceId>(top.key & kSlotMask);
  firing_in_heap_ = true;
  sources_[firing_].armed = false;
  --live_count_;
  now_ = top.when;
  (*sources_[firing_].fn)();
  SettleFiring();  // not re-armed: the stream has ended
}

bool
EventQueue::RunOne()
{
  bool source = false;
  if (PeekNext(&source) == nullptr) return false;
  if (source) {
    FireSource();
  } else {
    FireEvent();
  }
  return true;
}

void
EventQueue::RunUntil(TimeUs deadline)
{
  bool source = false;
  // Events scheduled at exactly `deadline` do fire (inclusive bound).
  for (const HeapNode* next = PeekNext(&source);
       next != nullptr && next->when <= deadline;
       next = PeekNext(&source)) {
    if (source) {
      FireSource();
    } else {
      FireEvent();
    }
  }
  if (deadline > now_) now_ = deadline;
}

}  // namespace dilu::sim
