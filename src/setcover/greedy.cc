#include "setcover/greedy.h"

#include <numeric>

#include "kernels/kernels.h"
#include "util/check.h"

namespace hypertree {

namespace {

// Specialization for universes of at most 64 elements: the whole scan
// runs on plain words.
int GreedySetCover1Word(const std::vector<Bitset>& candidates,
                        const Bitset& target, Rng* rng,
                        std::vector<int>* chosen) {
  const int count = static_cast<int>(candidates.size());
  uint64_t uncovered = target.NumWords() > 0 ? target.Word(0) : 0;
  int used = 0;
  if (count <= 64) {
    // Track the still-useful candidates in a word: once a candidate's
    // cover hits zero it stays zero (the uncovered set only shrinks), it
    // can never be picked and never draws a tie-break tick, so dropping
    // it from later rounds changes nothing. Bag covers retire most
    // candidates in the first round, so the later rounds scan a handful.
    uint64_t live = count == 64 ? ~uint64_t{0} : (uint64_t{1} << count) - 1;
    while (uncovered != 0) {
      int best = -1, best_cover = 0, ties = 0;
      for (uint64_t m = live; m != 0; m &= m - 1) {
        int i = __builtin_ctzll(m);
        int cover = __builtin_popcountll(candidates[i].Word(0) & uncovered);
        if (cover == 0) {
          live &= ~(uint64_t{1} << i);
          continue;
        }
        if (cover > best_cover) {
          best = i;
          best_cover = cover;
          ties = 1;
        } else if (cover == best_cover && rng != nullptr) {
          ++ties;
          if (rng->UniformInt(ties) == 0) best = i;
        }
      }
      HT_CHECK_MSG(best >= 0, "target not coverable by candidate sets");
      uncovered &= ~candidates[best].Word(0);
      ++used;
      if (chosen != nullptr) chosen->push_back(best);
    }
    return used;
  }
  while (uncovered != 0) {
    int best = -1, best_cover = 0, ties = 0;
    for (int i = 0; i < count; ++i) {
      int cover = __builtin_popcountll(candidates[i].Word(0) & uncovered);
      if (cover > best_cover) {
        best = i;
        best_cover = cover;
        ties = 1;
      } else if (cover == best_cover && cover > 0 && rng != nullptr) {
        ++ties;
        if (rng->UniformInt(ties) == 0) best = i;
      }
    }
    HT_CHECK_MSG(best >= 0, "target not coverable by candidate sets");
    uncovered &= ~candidates[best].Word(0);
    ++used;
    if (chosen != nullptr) chosen->push_back(best);
  }
  return used;
}

}  // namespace

int GreedySetCover(const std::vector<Bitset>& candidates, const Bitset& target,
                   Rng* rng, std::vector<int>* chosen) {
  if (chosen != nullptr) chosen->clear();
  if (target.NumWords() <= 1) {
    return GreedySetCover1Word(candidates, target, rng, chosen);
  }
  const int count = static_cast<int>(candidates.size());
  Bitset uncovered = target;
  int used = 0;
  while (uncovered.Any()) {
    int best = -1, best_cover = 0, ties = 0;
    for (int i = 0; i < count; ++i) {
      int cover = candidates[i].IntersectCount(uncovered);
      if (cover > best_cover) {
        best = i;
        best_cover = cover;
        ties = 1;
      } else if (cover == best_cover && cover > 0 && rng != nullptr) {
        ++ties;
        if (rng->UniformInt(ties) == 0) best = i;
      }
    }
    HT_CHECK_MSG(best >= 0, "target not coverable by candidate sets");
    uncovered -= candidates[best];
    ++used;
    if (chosen != nullptr) chosen->push_back(best);
  }
  return used;
}

int GreedySetCoverRows(const uint64_t* rows, size_t stride, int nrows,
                       const Bitset* active, const Bitset& target, Rng* rng,
                       std::vector<int>* chosen, GreedyCoverScratch* scratch) {
  if (chosen != nullptr) chosen->clear();
  const kernels::Ops& ops = kernels::Active();
  const int nwords = target.NumWords();
  // One-word universes with at most 64 candidates (the benchmark tables'
  // hot shape): one batched kernel scoring pass for the dense first
  // round — four packed rows per vector under AVX2 — then plain-word
  // rounds over the surviving candidates, where a kernel call would
  // cost more than the remaining work. The scan order (ascending bit
  // index), the zero-cover retirement, and the reservoir tie-break
  // draws replicate the list path exactly, so the rng stream is
  // bit-identical across the two shapes.
  if (nwords <= 1 && nrows <= 64) {
    uint64_t uncovered = nwords > 0 ? target.Word(0) : 0;
    uint64_t live;
    if (active != nullptr) {
      live = active->NumWords() > 0 ? active->Word(0) : 0;
    } else {
      live = nrows == 64 ? ~uint64_t{0} : (uint64_t{1} << nrows) - 1;
    }
    std::vector<int>& counts = scratch->counts;
    if (static_cast<int>(counts.size()) < nrows) counts.resize(nrows);
    bool batch = active == nullptr && stride == 1 && nrows > 0;
    int used = 0;
    while (uncovered != 0) {
      int best = -1, best_cover = 0, ties = 0;
      if (batch) {
        ops.ScoreRows(counts.data(), rows, 1, nullptr, nrows, &uncovered, 1);
        batch = false;
        for (uint64_t m = live; m != 0; m &= m - 1) {
          const int i = __builtin_ctzll(m);
          const int cover = counts[i];
          if (cover == 0) {
            live &= ~(uint64_t{1} << i);
            continue;
          }
          if (cover > best_cover) {
            best = i;
            best_cover = cover;
            ties = 1;
          } else if (cover == best_cover && rng != nullptr) {
            ++ties;
            if (rng->UniformInt(ties) == 0) best = i;
          }
        }
      } else {
        for (uint64_t m = live; m != 0; m &= m - 1) {
          const int i = __builtin_ctzll(m);
          const int cover = __builtin_popcountll(
              rows[static_cast<size_t>(i) * stride] & uncovered);
          if (cover == 0) {
            live &= ~(uint64_t{1} << i);
            continue;
          }
          if (cover > best_cover) {
            best = i;
            best_cover = cover;
            ties = 1;
          } else if (cover == best_cover && rng != nullptr) {
            ++ties;
            if (rng->UniformInt(ties) == 0) best = i;
          }
        }
      }
      HT_CHECK_MSG(best >= 0, "target not coverable by candidate sets");
      uncovered &= ~rows[static_cast<size_t>(best) * stride];
      ++used;
      if (chosen != nullptr) chosen->push_back(best);
    }
    return used;
  }
  std::vector<int>& live = scratch->live;
  std::vector<int>& counts = scratch->counts;
  live.clear();
  if (active != nullptr) {
    active->AppendTo(&live);
  } else {
    live.resize(static_cast<size_t>(nrows));
    std::iota(live.begin(), live.end(), 0);
  }
  if (static_cast<int>(counts.size()) < static_cast<int>(live.size())) {
    counts.resize(live.size());
  }
  scratch->uncovered = target;
  uint64_t* unc = scratch->uncovered.MutableWords();
  // The first round over a full candidate range scores with idx ==
  // nullptr (rows 0..k-1), which lets vector backends stream packed
  // single-word rows four at a time; compaction switches to the index
  // list from round two on.
  bool dense = active == nullptr;
  int used = 0;
  while (scratch->uncovered.Any()) {
    const int k = static_cast<int>(live.size());
    ops.ScoreRows(counts.data(), rows, stride, dense ? nullptr : live.data(),
                  k, unc, nwords);
    int best = -1, best_cover = 0, ties = 0, w = 0;
    for (int t = 0; t < k; ++t) {
      const int cover = counts[t];
      if (cover == 0) continue;  // retired: the uncovered set only shrinks
      const int i = live[t];
      live[w++] = i;
      if (cover > best_cover) {
        best = i;
        best_cover = cover;
        ties = 1;
      } else if (cover == best_cover && rng != nullptr) {
        ++ties;
        if (rng->UniformInt(ties) == 0) best = i;
      }
    }
    live.resize(static_cast<size_t>(w));
    dense = false;
    HT_CHECK_MSG(best >= 0, "target not coverable by candidate sets");
    const uint64_t* row = rows + static_cast<size_t>(best) * stride;
    for (int i = 0; i < nwords; ++i) unc[i] &= ~row[i];
    ++used;
    if (chosen != nullptr) chosen->push_back(best);
  }
  return used;
}

}  // namespace hypertree
