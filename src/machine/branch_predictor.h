// Bimodal branch predictor (2-bit saturating counters). It exists so that
// "forcibly clear all microarchitectural state" (paper section 3.2) has real
// state to clear beyond the caches/TLB, and so branch timing is
// data-dependent the way side-channel reasoning assumes.
#ifndef SRC_MACHINE_BRANCH_PREDICTOR_H_
#define SRC_MACHINE_BRANCH_PREDICTOR_H_

#include <algorithm>
#include <array>

#include "src/common/types.h"

namespace guillotine {

class BranchPredictor {
 public:
  static constexpr size_t kEntries = 1024;  // a power of two: Index is a mask

  BranchPredictor() { Flush(); }

  bool Predict(u64 pc) const { return table_[Index(pc)] >= 2; }

  // Returns true when the prediction was correct.
  bool Update(u64 pc, bool taken) {
    u8& counter = table_[Index(pc)];
    const bool predicted = counter >= 2;
    if (taken && counter < 3) {
      ++counter;
    } else if (!taken && counter > 0) {
      --counter;
    }
    return predicted == taken;
  }

  // Every counter back to weakly-not-taken.
  void Flush() { table_.fill(1); }

 private:
  static_assert((kEntries & (kEntries - 1)) == 0);
  static size_t Index(u64 pc) { return (pc >> 3) & (kEntries - 1); }

  std::array<u8, kEntries> table_;
};

}  // namespace guillotine

#endif  // SRC_MACHINE_BRANCH_PREDICTOR_H_
