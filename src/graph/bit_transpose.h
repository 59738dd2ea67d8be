/// \file bit_transpose.h
/// \brief In-register 64×64 bitset transpose.
///
/// The serve SampleBank stores retained pseudo-states twice: row-major
/// (one packed edge-bit row per state — what scalar RunPacked consumes) and
/// edge-major (for each edge, one word whose bit s is the edge's activity in
/// sample s of a 64-sample block — the one-word strip plane StripWorkspace
/// replays, and the source the wider strips are interleaved from).
/// Converting between the two layouts is a 64×64 bit-matrix transpose per
/// (64-row block × 64-edge column) tile; the recursive block-swap below does
/// it in 6·64 word operations, entirely in registers (Hacker's Delight §7-3).

#pragma once

#include <cstddef>
#include <cstdint>

namespace infoflow {

/// \brief Transposes the 64×64 bit matrix held in `m` in place.
///
/// Bit j of word i moves to bit i of word j: if `m[i]` is row i with bit j
/// = A[i][j], the result has `m[j]` bit i = A[i][j]. Involutive — applying
/// it twice restores the input.
inline void Transpose64x64(std::uint64_t m[64]) {
  // Swap progressively smaller off-diagonal blocks: 32×32, 16×16, ..., 1×1.
  // With bit j of word i = A[i][j] (LSB-first columns), the off-diagonal
  // pair to exchange is (rows i..i+s−1, cols ≥ s) ↔ (rows i+s.., cols < s):
  // the high bits of the upper rows against the low bits of the lower rows.
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (unsigned shift = 32; shift != 0; shift >>= 1) {
    for (unsigned i = 0; i < 64; i = (i + shift + 1) & ~shift) {
      const std::uint64_t t =
          ((m[i] >> shift) ^ m[i + shift]) & mask;
      m[i] ^= t << shift;
      m[i + shift] ^= t;
    }
    mask ^= mask << (shift >> 1);
  }
}

/// \brief Scatters one 64-sample block's edge-major plane into word slot
/// `w` of a `width`-word strip-major plane: `strip_words[e*width + w] =
/// block_plane[e]`.
///
/// The strip layout (strip_plane.h) interleaves the words of `width`
/// consecutive blocks per edge, so the W-lane BFS loads one edge's whole
/// strip with a single contiguous read. No bit-level work is needed beyond
/// the per-block Transpose64x64 above — widening is a word gather.
inline void ScatterBlockIntoStrip(const std::uint64_t* block_plane,
                                  std::size_t num_edges, unsigned width,
                                  unsigned w, std::uint64_t* strip_words) {
  for (std::size_t e = 0; e < num_edges; ++e) {
    strip_words[e * width + w] = block_plane[e];
  }
}

}  // namespace infoflow
