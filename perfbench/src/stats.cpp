#include "workloads.h"

namespace perfbench {

void count_errors(const std::vector<double>& belief,
                  const std::vector<ss::Label>& truth, std::size_t& wrong,
                  std::size_t& labelled) {
  for (std::size_t j = 0; j < belief.size() && j < truth.size(); ++j) {
    if (truth[j] != ss::Label::kTrue && truth[j] != ss::Label::kFalse) {
      continue;
    }
    ++labelled;
    bool said_true = belief[j] > 0.5;
    if (said_true != (truth[j] == ss::Label::kTrue)) ++wrong;
  }
}

}  // namespace perfbench
