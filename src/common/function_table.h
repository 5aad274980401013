/**
 * @file
 * Per-function record table with O(1) lookup by id.
 *
 * Records live in an ordered map (ascending-id iteration, as the
 * report writers and the admission window's float sums need) and are
 * indexed by an id-addressed vector of node pointers, so the
 * per-request paths (gateway dispatch, metrics recording) resolve a
 * record without a tree walk. Function ids are non-negative and dense
 * per runtime (assigned 0, 1, 2, ...), so the index is about as long
 * as the map. Map nodes never move, which keeps the index valid across
 * inserts; a copy would point into the source's nodes, so copying is
 * deleted.
 */
#ifndef DILU_COMMON_FUNCTION_TABLE_H_
#define DILU_COMMON_FUNCTION_TABLE_H_

#include <cstddef>
#include <map>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace dilu {

template <typename T>
class FunctionTable {
 public:
  using Map = std::map<FunctionId, T>;

  FunctionTable() = default;
  FunctionTable(const FunctionTable&) = delete;
  FunctionTable& operator=(const FunctionTable&) = delete;

  /** The record for `id`, default-constructed on first use. */
  T& Get(FunctionId id)
  {
    if (T* t = Find(id)) return *t;
    DILU_CHECK(id >= 0);
    const auto slot = static_cast<std::size_t>(id);
    if (index_.size() <= slot) index_.resize(slot + 1, nullptr);
    index_[slot] = &map_[id];
    return *index_[slot];
  }

  /** The record for `id`, or null if `id` was never used. */
  T* Find(FunctionId id)
  {
    const auto slot = static_cast<std::size_t>(id);
    return id >= 0 && slot < index_.size() ? index_[slot] : nullptr;
  }
  const T* Find(FunctionId id) const
  {
    return const_cast<FunctionTable*>(this)->Find(id);
  }

  /** Every record, ascending by id. */
  const Map& map() const { return map_; }
  typename Map::iterator begin() { return map_.begin(); }
  typename Map::iterator end() { return map_.end(); }

 private:
  Map map_;
  std::vector<T*> index_;
};

}  // namespace dilu

#endif  // DILU_COMMON_FUNCTION_TABLE_H_
