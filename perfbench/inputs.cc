#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

namespace perfbench {
namespace {

constexpr double kGcFraction = 0.41;
constexpr double kRepeatFraction = 0.30;
constexpr size_t kRepeatFamilies = 200;

bwtk::DnaCode RandomBase(Rng* rng) {
  // a, c, g, t = 0, 1, 2, 3; c and g share the GC fraction.
  const double u = rng->Unit();
  if (u < kGcFraction / 2) return 1;
  if (u < kGcFraction) return 2;
  if (u < kGcFraction + (1 - kGcFraction) / 2) return 0;
  return 3;
}

bwtk::DnaCode OtherBase(bwtk::DnaCode base, Rng* rng) {
  return static_cast<bwtk::DnaCode>((base + 1 + rng->Below(3)) % 4);
}

}  // namespace

uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c) {
  Rng rng(a ^ 0x5851F42D4C957F2Dull);
  uint64_t h = rng.Next() ^ b;
  Rng second(h);
  h = second.Next() ^ c;
  Rng third(h);
  return third.Next();
}

std::vector<bwtk::DnaCode> MakeGenome(uint64_t seed, size_t length) {
  Rng rng(MixSeed(seed, 0x67656E6F6D65ull));
  std::vector<std::vector<bwtk::DnaCode>> families(kRepeatFamilies);
  for (auto& family : families) {
    family.resize(300 + rng.Below(2701));
    for (auto& base : family) base = RandomBase(&rng);
  }
  std::vector<bwtk::DnaCode> text;
  text.reserve(length);
  size_t repeat_bases = 0;
  while (text.size() < length) {
    if (!text.empty() &&
        static_cast<double>(repeat_bases) <
            kRepeatFraction * static_cast<double>(text.size())) {
      // One diverged copy of a family; divergence 1-10% per copy, so some
      // copies are near-identical and reads from them map to several loci.
      const auto& family = families[rng.Below(kRepeatFamilies)];
      const double divergence = 0.01 + 0.09 * rng.Unit();
      for (bwtk::DnaCode base : family) {
        if (text.size() == length) break;
        text.push_back(rng.Unit() < divergence ? OtherBase(base, &rng) : base);
        ++repeat_bases;
      }
    } else {
      const size_t segment = 200 + rng.Below(1801);
      for (size_t i = 0; i < segment && text.size() < length; ++i) {
        text.push_back(RandomBase(&rng));
      }
    }
  }
  return text;
}

QueryStream::QueryStream(const std::vector<bwtk::DnaCode>* text,
                         const StreamSpec& spec, uint64_t seed,
                         uint64_t loci_seed)
    : text_(text), spec_(spec), seed_(seed) {
  loci_ = text->size() - spec.read_length + 1;
  Rng rng(MixSeed(seed, 0x73747265616Dull, spec.read_length));
  stride_ = (0x9E3779B97F4A7C15ull % loci_) | 1;
  while (std::gcd(stride_, static_cast<uint64_t>(loci_)) != 1) stride_ += 2;
  offset_ = rng.Below(loci_);
  Rng loci_rng(MixSeed(loci_seed, 0x686F746C6F6369ull, spec.read_length));
  const size_t window = std::max(spec.hot_window, spec.read_length);
  for (size_t i = 0; i < spec.hot_loci; ++i) {
    hot_.push_back(loci_rng.Below(text->size() - window + 1));
  }
  // Binomial quantiles at (j + 0.5) / kStratum, j = 0 .. kStratum - 1.
  const double p = spec.substitution_rate;
  const size_t m = spec.read_length;
  std::vector<double> cdf;
  double pmf = std::pow(1 - p, static_cast<double>(m));
  double total = 0;
  for (size_t s = 0; s <= m; ++s) {
    total += pmf;
    cdf.push_back(total);
    if (p >= 1) break;
    pmf *= static_cast<double>(m - s) / static_cast<double>(s + 1) * p / (1 - p);
  }
  for (uint64_t j = 0; j < kStratum; ++j) {
    const double u = (static_cast<double>(j) + 0.5) / kStratum;
    int s = 0;
    while (static_cast<size_t>(s) + 1 < cdf.size() && cdf[s] < u) ++s;
    strata_.push_back(s);
  }
}

int QueryStream::Substitutions(uint64_t index) const {
  // Bit-reversed slot order: any aligned run of kStratum / 2^j consecutive
  // queries takes evenly spaced quantiles, so a batch of 64 has the same
  // mix as the whole stratum.
  uint64_t slot = 0;
  for (uint64_t bit = 1, rest = index % kStratum; bit < kStratum; bit <<= 1) {
    slot = (slot << 1) | (rest & 1);
    rest >>= 1;
  }
  return strata_[slot];
}

Read QueryStream::Copy(size_t origin, int substitutions, Rng* rng) const {
  Read read;
  read.origin = origin;
  read.codes.assign(text_->begin() + static_cast<ptrdiff_t>(origin),
                    text_->begin() +
                        static_cast<ptrdiff_t>(origin + spec_.read_length));
  std::vector<size_t> positions(spec_.read_length);
  std::iota(positions.begin(), positions.end(), 0);
  for (int i = 0; i < substitutions; ++i) {
    std::swap(positions[i], positions[i + rng->Below(positions.size() - i)]);
    read.codes[positions[i]] = OtherBase(read.codes[positions[i]], rng);
  }
  read.substitutions = substitutions;
  read.ascii = bwtk::DecodeDna(read.codes);
  return read;
}

Read QueryStream::At(uint64_t index) const {
  Rng rng(MixSeed(seed_, index, 0x71756572ull));
  if (hot_.empty()) {
    // Affine permutation of the loci: distinct indexes, distinct origins.
    const uint64_t origin = (offset_ + (index % loci_) * stride_) % loci_;
    return Copy(origin, Substitutions(index), &rng);
  }
  const uint64_t in_burst = index % spec_.burst;
  if (in_burst > 0 && rng.Unit() < spec_.exact_repeat_rate) {
    return At(index - 1 - rng.Below(std::min<uint64_t>(in_burst, 8)));
  }
  Rng burst_rng(MixSeed(seed_, index / spec_.burst, 0x686F74ull));
  const size_t locus = hot_[burst_rng.Below(hot_.size())];
  const size_t window = std::max(spec_.hot_window, spec_.read_length);
  return Copy(locus + rng.Below(window - spec_.read_length + 1),
              Substitutions(index), &rng);
}

Read QueryStream::WithSubstitutions(uint64_t index, int substitutions) const {
  Rng rng(MixSeed(seed_, index, 0x737562ull + substitutions));
  return Copy(rng.Below(loci_), substitutions, &rng);
}

bool WriteFasta(const std::string& path,
                const std::vector<bwtk::DnaCode>& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << ">perfbench genome\n";
  std::string line;
  for (size_t i = 0; i < text.size(); i += 80) {
    line.clear();
    for (size_t j = i; j < std::min(text.size(), i + 80); ++j) {
      line.push_back("acgt"[text[j]]);
    }
    line.push_back('\n');
    out << line;
  }
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
