// Seeded inputs of the perfbench workloads: the genome and the query
// streams. Every input is a pure function of (seed, index), generated here
// rather than by the library's simulate/ module, so a change to the program
// can never change what the benchmark feeds it.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "alphabet/dna.h"

namespace perfbench {

/// SplitMix64: small, fast and identical on every platform (unlike the
/// standard library's distributions).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Mixes several words into one seed.
uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c = 0);

/// GC fraction 0.41; 30% of the bases are copies of 200 repeat families
/// (300-3000 bp each, 5% per-base divergence per copy).
std::vector<bwtk::DnaCode> MakeGenome(uint64_t seed, size_t length);

/// One query with the generator's ground truth.
struct Read {
  std::vector<bwtk::DnaCode> codes;
  size_t origin = 0;       ///< start of the locus it was copied from
  int substitutions = 0;   ///< bases changed relative to that locus
  std::string ascii;       ///< codes as acgt
};

/// The shape of one workload's query stream.
struct StreamSpec {
  size_t read_length = 0;
  int32_t k = 0;
  /// Per-base substitution rate. The count per read is stratified: every
  /// kStratum consecutive queries hold the Binomial(read_length, rate)
  /// counts at kStratum evenly spaced quantiles, so the mix of cheap and
  /// costly reads (a read without substitutions costs Algorithm A the most)
  /// does not drift from batch to batch or run to run.
  double substitution_rate = 0.0;
  /// 0: unique loci, one per index. Otherwise the stream visits this many
  /// hot loci in bursts (hot-spot shape).
  size_t hot_loci = 0;
  size_t burst = 16;              ///< consecutive queries per hot locus
  size_t hot_window = 150;        ///< offsets drawn within this window
  double exact_repeat_rate = 0;   ///< share resent from earlier in the burst
};

/// Deterministic query stream over `text`: At(i) depends only on the seeds,
/// the spec and i. `loci_seed` places the hot-spot loci, `seed` draws
/// everything else.
class QueryStream {
 public:
  static constexpr uint64_t kStratum = 256;

  QueryStream(const std::vector<bwtk::DnaCode>* text, const StreamSpec& spec,
              uint64_t seed, uint64_t loci_seed);

  Read At(uint64_t index) const;

  /// A read at a seeded random locus with exactly `substitutions` changed
  /// bases; these make sure the oracle sample holds a hit at every
  /// mismatch count from 0 to k.
  Read WithSubstitutions(uint64_t index, int substitutions) const;

  const StreamSpec& spec() const { return spec_; }

  /// The stream is At(0) .. At(length() - 1). With unique loci their
  /// origins are pairwise distinct, one per valid start position; a
  /// hot-spot stream has no such limit and is 2^40 queries long.
  uint64_t length() const {
    return hot_.empty() ? loci_ : uint64_t{1} << 40;
  }

 private:
  Read Copy(size_t origin, int substitutions, Rng* rng) const;
  int Substitutions(uint64_t index) const;

  const std::vector<bwtk::DnaCode>* text_;
  StreamSpec spec_;
  uint64_t seed_;
  size_t loci_ = 0;         // number of valid start positions
  uint64_t stride_ = 1;     // coprime with loci_: origins are a permutation
  uint64_t offset_ = 0;
  std::vector<size_t> hot_;  // hot-spot window starts
  std::vector<int> strata_;  // substitution count per stratum slot
};

/// Writes `text` as a one-record FASTA file.
bool WriteFasta(const std::string& path, const std::vector<bwtk::DnaCode>& text);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
