/// \file strip_ops.h
/// \brief W-word mask kernels for the strip reachability workspace.
///
/// A strip replays 64·W sampled worlds per BFS pass, so every mask the
/// workspace touches (reached, propagated, deltas, lane masks, edge plane
/// entries) is W consecutive `uint64_t`. These kernels are the only place
/// the width appears in arithmetic: plain unrolled loops the compiler can
/// auto-vectorize on any ISA, with AVX2 (4-word granules) and AVX-512
/// (8-word granules) bodies selected by the `Isa` tag. ISA-tagged
/// instantiations are compiled only in translation units built with the
/// matching -m flags (strip_reachability_avx2.cc / _avx512.cc) and chosen
/// at runtime by StripWorkspace::Create via __builtin_cpu_supports — the
/// generic instantiation is always present, so portability never depends
/// on the build host. The intrinsic bodies compute the exact same words as
/// the fallback — merges are plain OR/ANDNOT lattice steps — so results
/// are bit-identical whichever variant runs.

#pragma once

#include <cstdint>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace infoflow {

/// Widest supported strip, in 64-bit words (512 lanes per pass).
inline constexpr unsigned kMaxStripWords = 8;

/// ISA tags for StripOps / StripReachabilityWorkspace instantiations.
/// Ordered so `Isa >= kIsaAvx2` reads as "at least AVX2".
inline constexpr int kIsaGeneric = 0;
inline constexpr int kIsaAvx2 = 1;
inline constexpr int kIsaAvx512 = 2;

/// \brief Static W-word mask kernels (see file comment).
template <unsigned W, int Isa = kIsaGeneric>
struct StripOps {
  static_assert(W >= 1 && W <= kMaxStripWords);

  static void Copy(std::uint64_t* dst, const std::uint64_t* src) {
    for (unsigned w = 0; w < W; ++w) dst[w] = src[w];
  }

  static void Zero(std::uint64_t* dst) {
    for (unsigned w = 0; w < W; ++w) dst[w] = 0;
  }

  static bool Equal(const std::uint64_t* a, const std::uint64_t* b) {
    std::uint64_t diff = 0;
    for (unsigned w = 0; w < W; ++w) diff |= a[w] ^ b[w];
    return diff == 0;
  }

  /// dst |= src; returns whether any dst word changed.
  static bool MergeInto(std::uint64_t* dst, const std::uint64_t* src) {
    std::uint64_t grew = 0;
    for (unsigned w = 0; w < W; ++w) {
      const std::uint64_t merged = dst[w] | src[w];
      grew |= merged ^ dst[w];
      dst[w] = merged;
    }
    return grew != 0;
  }

  /// delta = r & ~p; returns whether any delta bit is set.
  static bool Delta(std::uint64_t* delta, const std::uint64_t* r,
                    const std::uint64_t* p) {
    std::uint64_t any = 0;
    for (unsigned w = 0; w < W; ++w) {
      delta[w] = r[w] & ~p[w];
      any |= delta[w];
    }
    return any != 0;
  }

  /// Bitmask (bit w) of the nonzero words of x. Push/pull rounds use it to
  /// relax only live words: near-critical replays grow different strip words
  /// on different rounds, so a node revisited for one word's growth must not
  /// pay W-word kernels on every out-edge.
  static unsigned NonzeroWords(const std::uint64_t* x) {
    unsigned mask = 0;
    for (unsigned w = 0; w < W; ++w) {
      mask |= static_cast<unsigned>(x[w] != 0) << w;
    }
    return mask;
  }

  /// Bitmask of words where a and b differ (the unsaturated words when b is
  /// the seeded-union cap).
  static unsigned DifferingWords(const std::uint64_t* a,
                                 const std::uint64_t* b) {
    unsigned mask = 0;
    for (unsigned w = 0; w < W; ++w) {
      mask |= static_cast<unsigned>(a[w] != b[w]) << w;
    }
    return mask;
  }

  /// dst |= delta & plane (the top-down edge relaxation); returns whether
  /// any dst word changed.
  static bool Relax(std::uint64_t* dst, const std::uint64_t* delta,
                    const std::uint64_t* plane) {
#if defined(__AVX512F__)
    if constexpr (Isa >= kIsaAvx512 && W % 8 == 0) {
      unsigned changed = 0;
      for (unsigned w = 0; w < W; w += 8) {
        const __m512i old = _mm512_loadu_si512(dst + w);
        const __m512i d = _mm512_loadu_si512(delta + w);
        const __m512i p = _mm512_loadu_si512(plane + w);
        const __m512i merged = _mm512_or_si512(old, _mm512_and_si512(d, p));
        _mm512_storeu_si512(dst + w, merged);
        changed |= _mm512_cmpneq_epi64_mask(old, merged);
      }
      return changed != 0;
    }
#endif
#if defined(__AVX2__)
    if constexpr (Isa >= kIsaAvx2 && W % 4 == 0) {
      bool changed = false;
      for (unsigned w = 0; w < W; w += 4) {
        const __m256i old =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
        const __m256i d =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(delta + w));
        const __m256i p =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(plane + w));
        const __m256i merged = _mm256_or_si256(old, _mm256_and_si256(d, p));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w), merged);
        const __m256i diff = _mm256_xor_si256(old, merged);
        changed |= _mm256_testz_si256(diff, diff) == 0;
      }
      return changed;
    }
#endif
    std::uint64_t grew = 0;
    for (unsigned w = 0; w < W; ++w) {
      const std::uint64_t merged = dst[w] | (delta[w] & plane[w]);
      grew |= merged ^ dst[w];
      dst[w] = merged;
    }
    return grew != 0;
  }

  /// acc |= src & plane (the bottom-up in-edge pull; growth is detected
  /// once per node by the caller, not per edge).
  static void Pull(std::uint64_t* acc, const std::uint64_t* src,
                   const std::uint64_t* plane) {
#if defined(__AVX512F__)
    if constexpr (Isa >= kIsaAvx512 && W % 8 == 0) {
      for (unsigned w = 0; w < W; w += 8) {
        const __m512i a = _mm512_loadu_si512(acc + w);
        const __m512i s = _mm512_loadu_si512(src + w);
        const __m512i p = _mm512_loadu_si512(plane + w);
        _mm512_storeu_si512(acc + w,
                            _mm512_or_si512(a, _mm512_and_si512(s, p)));
      }
      return;
    }
#endif
#if defined(__AVX2__)
    if constexpr (Isa >= kIsaAvx2 && W % 4 == 0) {
      for (unsigned w = 0; w < W; w += 4) {
        const __m256i a =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + w));
        const __m256i s =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
        const __m256i p =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(plane + w));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + w),
                            _mm256_or_si256(a, _mm256_and_si256(s, p)));
      }
      return;
    }
#endif
    for (unsigned w = 0; w < W; ++w) acc[w] |= src[w] & plane[w];
  }
};

}  // namespace infoflow
