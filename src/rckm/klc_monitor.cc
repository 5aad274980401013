#include "rckm/klc_monitor.h"

#include <algorithm>

namespace dilu::rckm {

void
KlcMonitor::Record(int bucket, TimeUs klc)
{
  if (klc <= 0) return;
  TimeUs& bucket_min =
      min_by_bucket_.try_emplace(bucket, klc).first->second;
  bucket_min = std::min(bucket_min, klc);
  current_ = klc;
  floor_ = bucket_min;
}

double
KlcMonitor::Inflation() const
{
  if (floor_ <= 0) return 0.0;
  return static_cast<double>(current_ - floor_)
      / static_cast<double>(floor_);
}

void
KlcMonitor::Reset()
{
  min_by_bucket_.clear();
  current_ = 0;
  floor_ = 0;
}

}  // namespace dilu::rckm
