#include "lcda/search/random_optimizer.h"

#include <cstdint>

namespace lcda::search {

RandomOptimizer::RandomOptimizer(SearchSpace space, bool avoid_duplicates,
                                 int max_retries)
    : space_(std::move(space)),
      avoid_duplicates_(avoid_duplicates),
      max_retries_(max_retries) {}

Design RandomOptimizer::propose(util::Rng& rng) {
  Design d = space_.sample(rng);
  if (avoid_duplicates_) {
    for (int attempt = 0; attempt < max_retries_ && seen_.contains(d.hash());
         ++attempt) {
      d = space_.sample(rng);
    }
    // Proposals count as seen immediately (not at feedback time), so the
    // duplicate-avoidance stream is independent of when — or whether —
    // feedback arrives. That is what makes the proposal stream
    // feedback-free and the optimizer safely pipelineable, and it draws
    // the exact same designs as the historical feedback-time bookkeeping:
    // the loop always feeds back precisely what was proposed.
    seen_.insert(d.hash());
  }
  return d;
}

void RandomOptimizer::feedback(const Observation&) {
  // Proposals are recorded in seen_ at propose() time; nothing to learn.
}

}  // namespace lcda::search
