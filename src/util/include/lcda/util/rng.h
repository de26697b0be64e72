#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

namespace lcda::util {

/// Deterministic, seedable PRNG (xoshiro256**).
///
/// All randomness in the project flows through explicitly-passed Rng
/// instances; there is no global generator. Two Rng objects constructed with
/// the same seed produce identical streams on every platform, which makes
/// experiments, tests and benchmarks reproducible bit-for-bit.
class Rng {
 public:
  /// Seeds the state via splitmix64 so that nearby seeds give uncorrelated
  /// streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached spare).
  double normal();

  /// Normal with the given mean / standard deviation.
  double normal(double mean, double stddev);

  /// One standard-normal draw without Box-Muller spare caching: consumes
  /// the same two uniforms and returns the same value as normal() does on
  /// a spare-free generator, but skips computing the sine half of the
  /// pair. For fork-per-sample Monte-Carlo streams, where each generator
  /// dies after a single draw and the spare would never be consumed.
  double normal_once();
  double normal_once(double mean, double stddev);

  /// Bernoulli trial.
  bool chance(double p);

  /// Uniformly chosen index into a non-empty container of size n.
  std::size_t index(std::size_t n);

  /// Uniformly chosen element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) {
    return items[index(items.size())];
  }

  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return items[index(items.size())];
  }

  /// Samples an index according to non-negative weights (need not sum to 1).
  /// Falls back to uniform if all weights are zero.
  std::size_t weighted_index(std::span<const double> weights);

  /// Same draw, with the caller supplying `total` = the left-to-right sum
  /// of `weights` (e.g. cached alongside a softmax). Produces bit-identical
  /// indices to the self-summing overload for the same stream — the RL
  /// controller's per-dimension sampling uses this to skip re-summing an
  /// unchanged policy every episode.
  std::size_t weighted_index(std::span<const double> weights, double total);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    if (items.size() < 2) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      std::size_t j = index(i + 1);
      using std::swap;
      swap(items[i], items[j]);
    }
  }

  /// Derives an independent child generator; useful to hand sub-components
  /// their own stream without coupling their consumption order.
  Rng fork();

 private:
  std::uint64_t state_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

/// splitmix64 step — exposed for seeding schemes and hashing small keys.
std::uint64_t splitmix64(std::uint64_t& state);

/// Stateless 64-bit mix of a key (useful for per-design deterministic
/// "noise" that does not depend on evaluation order).
std::uint64_t hash_mix(std::uint64_t key);

/// Combines two hashes.
std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b);

/// FNV-1a over bytes — the stable content hash behind study fingerprints
/// and shard-spec checksums (one definition, so a writer and an
/// independent verifier can never drift apart).
std::uint64_t fnv1a64(std::string_view s);

/// Seed of the `index`-th derived RNG stream of `base`. Unlike Rng::fork()
/// this consumes no generator state, so streams can be handed out in any
/// order (worker threads, shards) and stay bit-identical to a sequential
/// hand-out — the parallel engine's seed-derivation scheme.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index);

/// Hash of a list of integers (order-sensitive).
std::uint64_t hash_ints(std::span<const int> values, std::uint64_t seed = 0);

}  // namespace lcda::util
