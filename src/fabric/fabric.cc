/**
 * @file
 * Fabric plane implementation: analytical frontier advancement for the
 * storage and network tiers. See fabric.h and docs/FABRIC.md for the
 * model; tests/fabric_test.cc locks in conformance, GC accounting and
 * two-run determinism.
 */
#include "fabric/fabric.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace dilu::fabric {

namespace {

/**
 * Whole microseconds (>= 1) that `us` of service occupies. Rounded up,
 * since rounding to nearest lets a transfer drain up to half a
 * microsecond's worth of bytes faster than its tier's rate; a
 * picosecond of slack keeps floating-point noise in an exact quotient
 * (1.1 GB / 25 GB/s = 44000.00000000001 us) from costing a whole
 * microsecond.
 */
TimeUs
WholeUs(double us)
{
  return std::max<TimeUs>(1, static_cast<TimeUs>(std::ceil(us - 1e-6)));
}

/** Service time for `gb` at `gbps`, in whole microseconds (>= 1). */
TimeUs
DurationUs(double gb, double gbps)
{
  if (gb <= 0.0 || gbps <= 0.0) return 0;
  return WholeUs(gb / gbps * 1e6);
}

}  // namespace

TokenBucket::TokenBucket(double rate_gbps, double burst_gb)
    : rate_gbps_(rate_gbps), burst_gb_(burst_gb), tokens_gb_(burst_gb)
{
}

TimeUs
TokenBucket::Acquire(double gb, TimeUs now)
{
  if (rate_gbps_ <= 0.0 || gb <= 0.0) return now;
  const double rate_gb_per_us = rate_gbps_ / 1e6;
  tokens_gb_ = std::min(
      burst_gb_,
      tokens_gb_ + static_cast<double>(now - last_refill_) * rate_gb_per_us);
  last_refill_ = now;
  if (tokens_gb_ >= gb) {
    tokens_gb_ -= gb;
    return now;
  }
  const double deficit = gb - tokens_gb_;
  tokens_gb_ = 0.0;
  const TimeUs ready =
      now + std::max<TimeUs>(1, std::llround(deficit / rate_gb_per_us));
  last_refill_ = ready;
  return ready;
}

FabricPlane::FabricPlane(const FabricConfig& config, int nodes,
                         std::uint64_t seed)
    : config_(config), nodes_(std::max(1, nodes)), rng_(seed)
{
  config_.storage_devices = std::max(1, config_.storage_devices);
  config_.storage_gc_duty =
      std::clamp(config_.storage_gc_duty, 0.0, 0.9);
  device_frontier_.assign(
      static_cast<std::size_t>(config_.storage_devices), 0);
  const std::size_t nics = static_cast<std::size_t>(nodes_) + 1;
  nic_.assign(nics, TokenBucket(config_.nic_rate_gbps, config_.nic_burst_gb));
  uplink_frontier_.assign(nics, 0);
  downlink_frontier_.assign(nics, 0);
  link_down_until_.assign(nics, 0);
}

TimeUs
FabricPlane::GcAdjustedDone(TimeUs start, TimeUs need) const
{
  if (need <= 0) return start;
  constexpr TimeUs period = kStorageGcPeriod;
  const TimeUs gc = static_cast<TimeUs>(
      std::llround(config_.storage_gc_duty * static_cast<double>(period)));
  if (gc <= 0) return start + need;

  // GC owns [k*period, k*period + gc); user writes get the rest.
  TimeUs t = start;
  TimeUs phase = t % period;
  if (phase < gc) {
    t += gc - phase;
    phase = gc;
  }
  const TimeUs avail_first = period - phase;
  if (need <= avail_first) return t + need;
  TimeUs rem_need = need - avail_first;
  t += avail_first + gc;  // start of the next service region
  const TimeUs per_region = period - gc;
  const TimeUs full = (rem_need - 1) / per_region;
  const TimeUs rem = rem_need - full * per_region;  // in (0, per_region]
  return t + full * period + rem;
}

void
FabricPlane::Track(std::deque<Flight>* tier, const TransferResult& r,
                   double gb, TimeUs at)
{
  (void)at;
  tier->push_back({r.start, r.done, gb});
  const int depth = static_cast<int>(storage_flights_.size()
                                     + network_flights_.size());
  totals_.max_queue = std::max(totals_.max_queue, depth);
}

TransferResult
FabricPlane::SubmitStorage(NodeId node, double gb, TimeUs at)
{
  const std::size_t dev = static_cast<std::size_t>(
      (node < 0 ? 0 : node) % config_.storage_devices);
  TimeUs& frontier = device_frontier_[dev];
  const TimeUs start = std::max(at, frontier);
  const TimeUs need =
      WholeUs(gb / config_.storage_bw_gbps * 1e6 * brownout_);
  const TimeUs done = GcAdjustedDone(start, need);
  frontier = done;

  TransferResult r;
  r.start = start;
  r.done = done;
  r.stall = start - at;
  if (done - start < DurationUs(gb, config_.storage_bw_gbps)) {
    lower_bound_violated_ = true;
  }
  Track(&storage_flights_, r, gb, at);
  totals_.storage_transfers += 1;
  totals_.storage_gb += gb;
  totals_.stall_us += r.stall;
  window_stall_us_ += r.stall;
  return r;
}

TransferResult
FabricPlane::SubmitNetwork(NodeId src, NodeId dst, double gb, TimeUs at)
{
  const TimeUs jitter = std::llround(
      rng_.Uniform(0.0, 0.25 * static_cast<double>(kPostCost)));
  const TimeUs base = at + kPostCost + jitter;

  TransferResult r;
  if (src == dst) {
    // Loopback never touches the NIC; only the posting cost remains.
    r.start = base;
    r.done = base;
    r.stall = 0;
    totals_.network_transfers += 1;
    return r;
  }

  const std::size_t s = static_cast<std::size_t>(std::clamp<NodeId>(
      src, 0, nodes_));
  const std::size_t d = static_cast<std::size_t>(std::clamp<NodeId>(
      dst, 0, nodes_));
  TimeUs t = std::max({base, link_down_until_[s], link_down_until_[d]});
  t = nic_[s].Acquire(gb, t);

  const TimeUs hop = DurationUs(gb, config_.nic_rate_gbps);
  const TimeUs core = DurationUs(gb, kCoreGbps);
  const TimeUs up_start = std::max(t, uplink_frontier_[s]);
  uplink_frontier_[s] = up_start + hop;
  const TimeUs core_start = std::max(uplink_frontier_[s], core_frontier_);
  core_frontier_ = core_start + core;
  const TimeUs down_start =
      std::max(core_frontier_, downlink_frontier_[d]);
  downlink_frontier_[d] = down_start + hop;

  r.start = down_start;
  r.done = downlink_frontier_[d];
  r.stall = std::max<TimeUs>(0, up_start - base);
  if (r.done - up_start < 2 * hop + core) lower_bound_violated_ = true;
  Track(&network_flights_, r, gb, at);
  totals_.network_transfers += 1;
  totals_.network_gb += gb;
  totals_.stall_us += r.stall;
  window_stall_us_ += r.stall;
  return r;
}

void
FabricPlane::FailLink(NodeId node, TimeUs until)
{
  if (node < 0 || node > nodes_) return;
  const std::size_t n = static_cast<std::size_t>(node);
  link_down_until_[n] = std::max(link_down_until_[n], until);
  // Push the frontiers out so queued work visibly rides out the outage.
  uplink_frontier_[n] = std::max(uplink_frontier_[n], until);
  downlink_frontier_[n] = std::max(downlink_frontier_[n], until);
}

void
FabricPlane::SetStorageBrownout(double factor)
{
  brownout_ = std::max(1.0, factor);
}

TimeUs
FabricPlane::link_down_until(NodeId node) const
{
  if (node < 0 || node > nodes_) return 0;
  return link_down_until_[static_cast<std::size_t>(node)];
}

TimeUs
FabricPlane::StorageBacklogUs(TimeUs now) const
{
  TimeUs worst = 0;
  for (const TimeUs f : device_frontier_) {
    worst = std::max(worst, f - now);
  }
  return std::max<TimeUs>(0, worst);
}

TimeUs
FabricPlane::NetworkBacklogUs(NodeId node, TimeUs now) const
{
  if (node < 0 || node > nodes_) return 0;
  const std::size_t n = static_cast<std::size_t>(node);
  const TimeUs worst =
      std::max(uplink_frontier_[n], downlink_frontier_[n]) - now;
  return std::max<TimeUs>(0, worst);
}

void
FabricPlane::HarvestCompleted(TimeUs now)
{
  const auto harvest = [&](std::deque<Flight>* tier, double* window_gb) {
    for (auto it = tier->begin(); it != tier->end();) {
      if (it->done <= now) {
        *window_gb += it->gb;
        it = tier->erase(it);
      } else {
        ++it;
      }
    }
  };
  harvest(&storage_flights_, &window_storage_gb_);
  harvest(&network_flights_, &window_network_gb_);
}

FabricSample
FabricPlane::Sample(TimeUs now)
{
  HarvestCompleted(now);
  FabricSample s;
  s.at = now;
  s.storage_queue = static_cast<int>(storage_flights_.size());
  s.network_queue = static_cast<int>(network_flights_.size());
  const double window_s = ToSec(std::max<TimeUs>(1, now - window_started_));
  s.storage_gbps = window_storage_gb_ / window_s;
  s.network_gbps = window_network_gb_ / window_s;
  s.stall_s = ToSec(window_stall_us_);
  window_storage_gb_ = 0.0;
  window_network_gb_ = 0.0;
  window_stall_us_ = 0;
  window_started_ = now;
  return s;
}

double
FabricPlane::RemainingGb(const Flight& f, TimeUs now)
{
  if (now <= f.start) return f.gb;
  if (now >= f.done || f.done <= f.start) return 0.0;
  return f.gb * static_cast<double>(f.done - now)
         / static_cast<double>(f.done - f.start);
}

double
FabricPlane::InflightGb(TimeUs now) const
{
  double gb = 0.0;
  for (const Flight& f : storage_flights_) gb += RemainingGb(f, now);
  for (const Flight& f : network_flights_) gb += RemainingGb(f, now);
  return gb;
}

double
FabricPlane::CapacityDelayGb(TimeUs now) const
{
  double gb = 0.0;
  for (const TimeUs f : device_frontier_) {
    gb += config_.storage_bw_gbps * ToSec(std::max<TimeUs>(0, f - now));
  }
  for (std::size_t n = 0; n < uplink_frontier_.size(); ++n) {
    gb += config_.nic_rate_gbps
          * ToSec(std::max<TimeUs>(0, uplink_frontier_[n] - now));
    gb += config_.nic_rate_gbps
          * ToSec(std::max<TimeUs>(0, downlink_frontier_[n] - now));
  }
  gb += kCoreGbps
        * ToSec(std::max<TimeUs>(0, core_frontier_ - now));
  return gb;
}

}  // namespace dilu::fabric
