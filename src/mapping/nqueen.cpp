#include "mapping/nqueen.hpp"

#include <bit>

#include "common/error.hpp"

namespace aurora::mapping {
namespace {

/// Algorithm 1's depth-first search for the first rows x num_cols queens
/// solution, one queen per row, each row's columns tried lowest first — so
/// it finds the placement a scan of every column finds. The columns earlier
/// queens attack (taken, and the diagonals, which move one column per row:
/// left toward higher columns, right toward lower) are kept as bitsets of
/// 64-column words, so a step visits only the free columns.
struct QueenSearch {
  std::uint32_t rows = 0;
  std::size_t words = 0;             // 64-bit words per bitset
  std::vector<std::uint64_t> board;  // the board's columns
  /// Row r's word i holds taken, left and right at
  /// attacked[3 * (words * r + i)].
  std::vector<std::uint64_t> attacked;
  std::vector<std::uint32_t> cols;

  bool search(std::uint32_t row) {
    if (row == rows) return true;
    const std::size_t n = words;
    const std::uint64_t* cur = &attacked[3 * n * row];
    std::uint64_t* next = &attacked[3 * n * (row + 1)];
    for (std::size_t w = 0; w < n; ++w) {
      for (std::uint64_t free =
               board[w] & ~(cur[3 * w] | cur[3 * w + 1] | cur[3 * w + 2]);
           free != 0; free &= free - 1) {
        const std::uint64_t queen = free & (~free + 1);
        std::uint64_t carry = 0;  // the left bit leaving word i - 1
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t add = i == w ? queen : 0;
          const std::uint64_t left = cur[3 * i + 1] | add;
          const std::uint64_t right_above =
              i + 1 < n ? cur[3 * i + 5] | (i + 1 == w ? queen : 0) : 0;
          next[3 * i] = cur[3 * i] | add;
          next[3 * i + 1] = left << 1 | carry;
          next[3 * i + 2] = (cur[3 * i + 2] | add) >> 1 | right_above << 63;
          carry = left >> 63;
        }
        cols[row] = static_cast<std::uint32_t>(64 * w) + std::countr_zero(free);
        if (search(row + 1)) return true;
      }
    }
    return false;
  }
};

/// Queen columns for `rows` queens on a rows x cols board, or a staggered
/// fallback when no solution exists (tiny boards only).
std::vector<std::uint32_t> queen_columns(std::uint32_t rows,
                                         std::uint32_t num_cols) {
  AURORA_CHECK(rows >= 1 && num_cols >= 1);
  AURORA_CHECK(rows <= num_cols);
  const std::size_t words = (num_cols + 63) / 64;
  QueenSearch q{rows, words, std::vector<std::uint64_t>(words, ~0ull),
                std::vector<std::uint64_t>(3 * words * (rows + 1), 0),
                std::vector<std::uint32_t>(rows, 0)};
  if (num_cols % 64 != 0) q.board.back() = (1ull << (num_cols % 64)) - 1;
  if (q.search(0)) return q.cols;
  // No solution (e.g. 2x2, 3x3, 2x3): stagger columns so rows and columns
  // stay distinct even though diagonals may touch.
  for (std::uint32_t r = 0; r < rows; ++r) q.cols[r] = r % num_cols;
  return q.cols;
}

}  // namespace

std::vector<noc::Coord> identify_s_pes(std::uint32_t k) {
  return identify_s_pes(PeRegion::full(k));
}

std::vector<noc::Coord> identify_s_pes(const PeRegion& region) {
  region.validate();
  const std::uint32_t rows = std::min(region.rows(), region.cols());
  const auto cols = queen_columns(rows, region.cols());
  std::vector<noc::Coord> result;
  result.reserve(rows);
  for (std::uint32_t r = 0; r < rows; ++r) {
    result.push_back({region.row_begin + r, cols[r]});
  }
  return result;
}

bool is_valid_queen_placement(const std::vector<noc::Coord>& placement) {
  for (std::size_t i = 0; i < placement.size(); ++i) {
    for (std::size_t j = i + 1; j < placement.size(); ++j) {
      const auto& a = placement[i];
      const auto& b = placement[j];
      if (a.row == b.row || a.col == b.col) return false;
      const auto dr =
          a.row > b.row ? a.row - b.row : b.row - a.row;
      const auto dc =
          a.col > b.col ? a.col - b.col : b.col - a.col;
      if (dr == dc) return false;
    }
  }
  return true;
}

}  // namespace aurora::mapping
