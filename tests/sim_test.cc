/** @file Unit tests for the discrete-event engine. */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulation.h"

namespace dilu::sim {

/** Reaches EventQueue's seq counter so tests can drive it to the
 *  renumbering threshold without scheduling 2^40 events. */
class EventQueueTestPeer {
 public:
  static constexpr std::uint64_t kSeqLimit =
      1ull << (64 - EventQueue::kSlotBits);
  static std::uint64_t NextSeq(const EventQueue& q) { return q.next_seq_; }
  static void SetNextSeq(EventQueue& q, std::uint64_t seq)
  {
    q.next_seq_ = seq;
  }
};

namespace {

TEST(EventQueue, FiresInTimeOrder)
{
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(Ms(30), [&] { order.push_back(3); });
  q.ScheduleAt(Ms(10), [&] { order.push_back(1); });
  q.ScheduleAt(Ms(20), [&] { order.push_back(2); });
  while (q.RunOne()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), Ms(30));
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.ScheduleAt(Ms(10), [&order, i] { order.push_back(i); });
  }
  while (q.RunOne()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilAdvancesTimeWithoutEvents)
{
  EventQueue q;
  q.RunUntil(Sec(5));
  EXPECT_EQ(q.now(), Sec(5));
}

TEST(EventQueue, RunUntilStopsAtDeadline)
{
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(Ms(10), [&] { ++fired; });
  q.ScheduleAt(Ms(100), [&] { ++fired; });
  q.RunUntil(Ms(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), Ms(50));
  q.RunUntil(Ms(200));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelPreventsFiring)
{
  EventQueue q;
  int fired = 0;
  const EventId id = q.ScheduleAt(Ms(10), [&] { ++fired; });
  q.ScheduleAt(Ms(20), [&] { ++fired; });
  q.Cancel(id);
  q.RunUntil(Ms(100));
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelFiredEventIsNoOp)
{
  EventQueue q;
  int fired = 0;
  const EventId id = q.ScheduleAt(Ms(10), [&] { ++fired; });
  q.ScheduleAt(Ms(20), [&] { ++fired; });
  EXPECT_TRUE(q.RunOne());
  EXPECT_EQ(fired, 1);
  // The event already fired; cancelling it must not disturb the
  // bookkeeping for the one still-pending event.
  q.Cancel(id);
  q.Cancel(id);
  EXPECT_EQ(q.PendingCount(), 1u);
  q.RunUntil(Ms(100));
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, CancelUnknownIdIsNoOp)
{
  EventQueue q;
  q.ScheduleAt(Ms(10), [] {});
  q.Cancel(12345);  // never issued
  EXPECT_EQ(q.PendingCount(), 1u);
  q.RunUntil(Ms(10));
  EXPECT_TRUE(q.Empty());
}

// Regression for the O(n)-scan cancellation list: cancelling 10k events
// used to make every subsequent pop linearly scan the cancelled vector
// (quadratic overall). With set-based bookkeeping this finishes
// instantly; the loose wall-clock bound only trips on a blowup.
TEST(EventQueue, ManyCancellationsNoQuadraticBlowup)
{
  constexpr int kEvents = 10000;
  EventQueue q;
  int fired = 0;
  std::vector<EventId> ids;
  ids.reserve(kEvents);
  // dilu-lint: allow(wall-clock loose real-time bound guarding against a quadratic blowup)
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(q.ScheduleAt(Ms(1) + i, [&] { ++fired; }));
    q.ScheduleAt(Ms(1) + i, [&] { ++fired; });  // survivor at same time
  }
  for (EventId id : ids) q.Cancel(id);
  EXPECT_EQ(q.PendingCount(), static_cast<std::size_t>(kEvents));
  q.RunUntil(Sec(60));
  // dilu-lint: allow(wall-clock loose real-time bound guarding against a quadratic blowup)
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(fired, kEvents);
  EXPECT_TRUE(q.Empty());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
}

TEST(EventQueue, RunUntilAdvancesToDeadlineWhenQueueDrainsEarly)
{
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(Ms(10), [&] { ++fired; });
  // The last event is at 10ms, well before the 50ms deadline: time must
  // still land on exactly the deadline, not on the last event time.
  q.RunUntil(Ms(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), Ms(50));
}

TEST(EventQueue, RunUntilDeadlineIsInclusive)
{
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(Ms(50), [&] { ++fired; });  // exactly at the deadline
  q.ScheduleAt(Ms(50) + 1, [&] { ++fired; });  // one tick past
  q.RunUntil(Ms(50));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), Ms(50));
  q.RunUntil(Ms(50) + 1);
  EXPECT_EQ(fired, 2);
}

// Determinism property: the same sequence of schedule/cancel calls must
// produce the identical firing order on every run — the simulation's
// reproducibility rests on this (ties break by insertion order, and no
// internal pooling/heap detail may leak into ordering).
TEST(EventQueue, DeterministicFiringOrderAcrossRuns)
{
  constexpr int kEvents = 5000;
  const auto run = [] {
    EventQueue q;
    std::vector<int> order;
    std::vector<EventId> ids;
    std::uint64_t lcg = 12345;
    for (int i = 0; i < kEvents; ++i) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      const TimeUs when = static_cast<TimeUs>((lcg >> 33) % 1000);
      ids.push_back(q.ScheduleAt(when, [&order, i] { order.push_back(i); }));
      if (i % 3 == 0 && i > 0) q.Cancel(ids[static_cast<std::size_t>(i / 2)]);
    }
    while (q.RunOne()) {
    }
    return order;
  };
  const std::vector<int> first = run();
  const std::vector<int> second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// 100k interleaved schedule/cancel/fire operations: PendingCount must
// track exactly, and the record slab must recycle slots instead of
// growing with the total event count (tombstones are reclaimed when
// their heap entries surface).
TEST(EventQueue, CancelStressRecyclesSlab)
{
  constexpr int kRounds = 10000;
  EventQueue q;
  int fired = 0;
  int expected_fired = 0;
  for (int round = 0; round < kRounds; ++round) {
    EventId ids[10];
    const TimeUs base = q.now();
    for (int i = 0; i < 10; ++i) {
      ids[i] = q.ScheduleAt(base + 1 + (i * 3) % 7, [&] { ++fired; });
    }
    EXPECT_EQ(q.PendingCount(), 10u);
    for (int i = 0; i < 10; i += 2) q.Cancel(ids[i]);
    EXPECT_EQ(q.PendingCount(), 5u);
    expected_fired += 5;
    q.RunUntil(base + 10);
    EXPECT_EQ(q.PendingCount(), 0u);
  }
  EXPECT_EQ(fired, expected_fired);
  EXPECT_TRUE(q.Empty());
  // 100k events flowed through; the slab must stay at the high-water
  // mark of *concurrent* events (10 here, plus reclaim slack).
  EXPECT_LE(q.SlabSize(), 64u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.ScheduleAfter(Ms(1), chain);
  };
  q.ScheduleAt(0, chain);
  q.RunUntil(Ms(100));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.PendingCount(), 0u);
}

TEST(EventQueue, SourceFiresOncePerArm)
{
  EventQueue q;
  std::vector<TimeUs> fired;
  SourceId src = 0;
  src = q.AddSource([&] {
    fired.push_back(q.now());
    if (fired.size() < 3) q.ArmSource(src, q.now() + 10);
  });
  EXPECT_TRUE(q.Empty());  // registered, not armed
  q.ArmSource(src, 5);
  EXPECT_EQ(q.PendingCount(), 1u);
  q.RunUntil(100);
  EXPECT_EQ(fired, (std::vector<TimeUs>{5, 15, 25}));
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, SourceTiesOrderLikeEventsPostedAtTheSameMoment)
{
  EventQueue q;
  std::vector<int> order;
  const SourceId a = q.AddSource([&] { order.push_back(1); });
  q.ScheduleAt(7, [&] { order.push_back(0); });
  q.ArmSource(a, 7);
  q.ScheduleAt(7, [&] { order.push_back(2); });
  while (q.RunOne()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// A source firing with nothing else pending counts as absent: the
// queue has drained, so the next post restarts the seq counter, as it
// did when the source's firing was an ordinary (already popped) event.
TEST(EventQueue, SourceFiringAloneRestartsTheSeqCounter)
{
  EventQueue q;
  std::vector<int> order;
  std::vector<std::uint64_t> seqs;
  SourceId src = 0;
  src = q.AddSource([&] {
    order.push_back(0);
    if (order.size() > 1) return;
    q.ScheduleAt(q.now(), [&] { order.push_back(1); });
    seqs.push_back(EventQueueTestPeer::NextSeq(q));
    q.ArmSource(src, q.now());
    seqs.push_back(EventQueueTestPeer::NextSeq(q));
  });
  for (int i = 0; i < 5; ++i) q.ScheduleAt(1, [] {});
  q.ArmSource(src, 2);  // seq 5
  while (q.RunOne()) {
  }
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0}));
}

// Past the 40-bit seq space, both heaps are renumbered in their joint
// (when, seq) order, so interleaved ties keep their insertion order.
TEST(EventQueue, RenumberingKeepsTheJointOrderOfBothHeaps)
{
  EventQueue q;
  std::vector<int> order;
  std::vector<SourceId> srcs;
  for (int i = 0; i < 4; ++i) {
    srcs.push_back(q.AddSource([&order, i] { order.push_back(10 + i); }));
  }
  q.ScheduleAt(3, [&] { order.push_back(0); });
  q.ArmSource(srcs[0], 3);
  EventQueueTestPeer::SetNextSeq(q, EventQueueTestPeer::kSeqLimit - 1);
  q.ScheduleAt(3, [&] { order.push_back(1); });  // last seq before renumber
  q.ArmSource(srcs[1], 3);                        // renumbers, then draws
  q.ScheduleAt(3, [&] { order.push_back(2); });
  q.ArmSource(srcs[2], 2);
  EXPECT_EQ(EventQueueTestPeer::NextSeq(q), 6u);
  while (q.RunOne()) {
  }
  EXPECT_EQ(order, (std::vector<int>{12, 0, 10, 1, 11, 2}));
}

/**
 * The reference model of EventQueue's ordering contract: a list of
 * pending entries fired in (when, insertion order), with a source
 * disarmed while it fires. No heaps, no seq counter, no resets.
 */
class ReferenceQueue {
 public:
  using Fn = std::function<void()>;

  TimeUs now() const { return now_; }
  std::size_t PendingCount() const { return pending_.size(); }

  EventId ScheduleAt(TimeUs when, Fn fn)
  {
    EXPECT_GE(when, now_);
    events_.push_back(std::move(fn));
    pending_.push_back({when, order_++, false, events_.size() - 1});
    return events_.size() - 1;
  }

  void Cancel(EventId id)
  {
    pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                  [id](const Entry& e) {
                                    return !e.source && e.index == id;
                                  }),
                   pending_.end());
  }

  SourceId AddSource(Fn fn)
  {
    sources_.push_back(std::move(fn));
    return static_cast<SourceId>(sources_.size() - 1);
  }

  void ArmSource(SourceId id, TimeUs when)
  {
    EXPECT_GE(when, now_);
    pending_.push_back({when, order_++, true, id});
  }

  bool RunOne()
  {
    if (pending_.empty()) return false;
    auto next = std::min_element(
        pending_.begin(), pending_.end(), [](const Entry& a, const Entry& b) {
          return a.when != b.when ? a.when < b.when : a.order < b.order;
        });
    const Entry e = *next;
    pending_.erase(next);
    now_ = e.when;
    if (e.source) {
      sources_[e.index]();
    } else {
      Fn fn = std::move(events_[e.index]);
      fn();
    }
    return true;
  }

 private:
  struct Entry {
    TimeUs when;
    std::uint64_t order;
    bool source;
    std::size_t index;
  };
  std::vector<Entry> pending_;
  std::vector<Fn> events_;
  std::deque<Fn> sources_;  ///< a firing source may add sources
  std::uint64_t order_ = 0;
  TimeUs now_ = 0;
};

/** The cases the differential's programs reached, counted on the
 *  EventQueue runs. */
struct Coverage {
  int rearm_at_now = 0;
  int event_before_rearm = 0;
  int event_after_rearm = 0;
  int armed_from_other_callback = 0;
  int fired_alone = 0;     ///< a source fired with nothing else pending
  int seq_jumps = 0;       ///< jumps to the renumbering threshold
};

/**
 * A randomized program over queue Q: every callback logs (now, label,
 * pending) and then draws actions — schedule, cancel, arm a source,
 * add a source, re-arm itself (before, between or after the others),
 * or jump the seq counter to the renumbering threshold. Delays are
 * mostly 0-3 so ties between sources and events are the norm. The
 * draws depend only on the firing order, so two queues that fire
 * alike run the same program.
 */
template <typename Q>
class Script {
 public:
  Script(std::uint64_t seed, std::function<void(Q&)> jump_seq)
      : rng_(seed), jump_seq_(std::move(jump_seq))
  {
  }

  std::vector<std::int64_t> Run(Coverage* cov)
  {
    cov_ = cov;
    for (int epoch = 0; epoch < 6; ++epoch) {
      budget_ = 400;
      // Seeded outside any callback; each epoch starts from an empty
      // queue, so the first post takes the drained-queue seq reset.
      for (int i = 0; i < 6; ++i) Act(-1);
      while (q_.RunOne()) {
        log_.push_back(static_cast<std::int64_t>(q_.PendingCount()));
      }
      log_.push_back(-1);
    }
    return log_;
  }

 private:
  std::uint64_t Draw(std::uint64_t n)
  {
    rng_ = rng_ * 6364136223846793005ull + 1442695040888963407ull;
    return (rng_ >> 33) % n;
  }

  TimeUs Delay()
  {
    const std::uint64_t d = Draw(10);
    return static_cast<TimeUs>(d < 7 ? d % 4 : 4 + Draw(20));
  }

  void Log(int label)
  {
    log_.push_back(q_.now());
    log_.push_back(label);
  }

  void Schedule()
  {
    const int label = next_label_++;
    events_.push_back(q_.ScheduleAt(q_.now() + Delay(), [this, label] {
      Log(label);
      Callback(-1);
    }));
  }

  void Arm(std::size_t k)
  {
    armed_[k] = true;
    q_.ArmSource(sources_[k], q_.now() + Delay());
  }

  void AddSource()
  {
    const std::size_t k = sources_.size();
    const int label = 1000000 + static_cast<int>(k);
    sources_.push_back(q_.AddSource([this, k, label] {
      armed_[k] = false;
      if (q_.PendingCount() == 0 && cov_ != nullptr) ++cov_->fired_alone;
      Log(label);
      Callback(static_cast<int>(k));
    }));
    armed_.push_back(false);
  }

  /** One random action; `self` is the firing source (-1: none). */
  void Act(int self)
  {
    if (budget_ <= 0) return;
    --budget_;
    const std::uint64_t pick = Draw(100);
    if (pick < 50) {
      Schedule();
    } else if (pick < 62) {
      if (!events_.empty()) q_.Cancel(events_[Draw(events_.size())]);
    } else if (pick < 80) {
      if (sources_.empty()) return;
      const std::size_t k = Draw(sources_.size());
      if (armed_[k] || static_cast<int>(k) == self) return;
      if (self >= 0 && cov_ != nullptr) ++cov_->armed_from_other_callback;
      Arm(k);
    } else if (pick < 95) {
      AddSource();
      if (Draw(2) == 0) Arm(sources_.size() - 1);
    } else if (q_.PendingCount() > 0) {
      if (cov_ != nullptr) ++cov_->seq_jumps;
      jump_seq_(q_);
    }
  }

  void Callback(int self)
  {
    const std::uint64_t actions = Draw(4);
    const bool rearm = self >= 0 && budget_ > 0 && Draw(10) < 8;
    const std::uint64_t rearm_at = Draw(actions + 1);
    bool rearmed = false;
    for (std::uint64_t i = 0; i <= actions; ++i) {
      if (rearm && i == rearm_at) {
        --budget_;
        const std::size_t k = static_cast<std::size_t>(self);
        armed_[k] = true;
        const TimeUs when = q_.now() + Delay();
        if (when == q_.now() && cov_ != nullptr) ++cov_->rearm_at_now;
        q_.ArmSource(sources_[k], when);
        rearmed = true;
      }
      if (i == actions) break;
      const std::size_t before = events_.size();
      Act(self);
      if (self >= 0 && events_.size() > before && cov_ != nullptr) {
        ++(rearmed ? cov_->event_after_rearm : cov_->event_before_rearm);
      }
    }
  }

  Q q_;
  std::uint64_t rng_;
  std::function<void(Q&)> jump_seq_;
  Coverage* cov_ = nullptr;
  int budget_ = 0;
  int next_label_ = 0;
  std::vector<EventId> events_;
  std::vector<SourceId> sources_;
  std::vector<bool> armed_;
  std::vector<std::int64_t> log_;
};

TEST(EventQueue, SourcesAndEventsMatchAReferenceModel)
{
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Script<EventQueue> real(seed, [](EventQueue& q) {
      EventQueueTestPeer::SetNextSeq(q, EventQueueTestPeer::kSeqLimit);
    });
    Script<ReferenceQueue> ref(seed, [](ReferenceQueue&) {});
    const std::vector<std::int64_t> got = real.Run(&cov);
    const std::vector<std::int64_t> want = ref.Run(nullptr);
    ASSERT_EQ(got, want) << "seed " << seed;
  }
  // The program reached every case the merge has to get right:
  EXPECT_GT(cov.rearm_at_now, 0);
  EXPECT_GT(cov.event_before_rearm, 0);
  EXPECT_GT(cov.event_after_rearm, 0);
  EXPECT_GT(cov.armed_from_other_callback, 0);
  EXPECT_GT(cov.fired_alone, 0);
  EXPECT_GT(cov.seq_jumps, 0);
}

TEST(Simulation, PeriodicTaskFiresAtPeriod)
{
  Simulation sim;
  int fires = 0;
  sim.SchedulePeriodic(Ms(5), Ms(5), [&] { ++fires; });
  sim.RunUntil(Ms(52));
  // fires at 5, 10, ..., 50 -> 10 times
  EXPECT_EQ(fires, 10);
}

TEST(Simulation, StopPeriodicHalts)
{
  Simulation sim;
  int fires = 0;
  Simulation::TaskId id = 0;
  id = sim.SchedulePeriodic(Ms(5), Ms(5), [&] {
    if (++fires == 3) sim.StopPeriodic(id);
  });
  sim.RunUntil(Sec(1));
  EXPECT_EQ(fires, 3);
}

TEST(Simulation, SelfStopFromCallbackDoesNotRearm)
{
  Simulation sim;
  int fires = 0;
  Simulation::TaskId id = 0;
  id = sim.SchedulePeriodic(Ms(5), Ms(5), [&] {
    ++fires;
    sim.StopPeriodic(id);  // stop on the very first firing
  });
  sim.RunUntil(Sec(1));
  EXPECT_EQ(fires, 1);
  // A stopped task leaves nothing behind in the queue.
  EXPECT_EQ(sim.queue().PendingCount(), 0u);
}

TEST(Simulation, StopOtherTaskFromCallback)
{
  Simulation sim;
  int victim_fires = 0;
  int killer_fires = 0;
  // Victim fires at 5, 10, 15, ...; killer fires once at 12ms and stops
  // it, so the victim's 15ms firing must not happen.
  const Simulation::TaskId victim =
      sim.SchedulePeriodic(Ms(5), Ms(5), [&] { ++victim_fires; });
  Simulation::TaskId killer = 0;
  killer = sim.SchedulePeriodic(Ms(12), Ms(12), [&] {
    ++killer_fires;
    sim.StopPeriodic(victim);
    sim.StopPeriodic(killer);
  });
  sim.RunUntil(Sec(1));
  EXPECT_EQ(victim_fires, 2);
  EXPECT_EQ(killer_fires, 1);
  EXPECT_EQ(sim.queue().PendingCount(), 0u);
}

TEST(Simulation, StopBeforeFirstFiring)
{
  Simulation sim;
  int fires = 0;
  const Simulation::TaskId id =
      sim.SchedulePeriodic(Ms(50), Ms(50), [&] { ++fires; });
  sim.RunUntil(Ms(10));
  sim.StopPeriodic(id);
  sim.RunUntil(Sec(1));
  EXPECT_EQ(fires, 0);
  EXPECT_EQ(sim.queue().PendingCount(), 0u);
}

TEST(Simulation, MultiplePeriodicTasksInterleave)
{
  Simulation sim;
  int a = 0;
  int b = 0;
  sim.SchedulePeriodic(Ms(5), Ms(5), [&] { ++a; });
  sim.SchedulePeriodic(Ms(10), Ms(10), [&] { ++b; });
  sim.RunUntil(Ms(100));
  EXPECT_EQ(a, 20);
  EXPECT_EQ(b, 10);
}

TEST(Simulation, RunForSaturatesAtTheTimeCap)
{
  // Regression: RunFor(huge) used to compute now + duration, which
  // wrapped TimeUs negative and made the run a silent no-op. It now
  // saturates at kTimeCapUs — the same ~31-year ceiling ParseTime
  // enforces on spec durations — so events up to the cap still fire.
  Simulation sim;
  int fired = 0;
  sim.Post(kTimeCapUs, [&] { ++fired; });
  sim.RunFor(std::numeric_limits<TimeUs>::max());
  EXPECT_EQ(fired, 1) << "the capped run must still reach the cap";
  EXPECT_EQ(sim.now(), kTimeCapUs);

  // Already at the cap: another saturating run must not wrap either.
  sim.RunFor(std::numeric_limits<TimeUs>::max());
  EXPECT_EQ(sim.now(), kTimeCapUs);
}

TEST(Simulation, RunForNearTheCapClampsNotWraps)
{
  Simulation sim;
  sim.RunFor(kTimeCapUs - Ms(1));
  EXPECT_EQ(sim.now(), kTimeCapUs - Ms(1));
  int fired = 0;
  sim.Post(kTimeCapUs, [&] { ++fired; });
  sim.RunFor(Sec(5));  // would land past the cap: clamps to it
  EXPECT_EQ(sim.now(), kTimeCapUs);
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace dilu::sim
