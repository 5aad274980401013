#include "rckm/klc_monitor.h"

#include "common/logging.h"

namespace dilu::rckm {

void
KlcMonitor::Record(int bucket, TimeUs klc)
{
  if (klc <= 0) return;
  DILU_CHECK(bucket >= 0);
  const std::size_t b = static_cast<std::size_t>(bucket);
  if (b >= min_by_bucket_.size()) min_by_bucket_.resize(b + 1, 0);
  TimeUs& bucket_min = min_by_bucket_[b];
  if (bucket_min == 0 || klc < bucket_min) bucket_min = klc;
  current_ = klc;
  floor_ = bucket_min;
}

void
KlcMonitor::Reset()
{
  min_by_bucket_.clear();
  current_ = 0;
  floor_ = 0;
}

}  // namespace dilu::rckm
