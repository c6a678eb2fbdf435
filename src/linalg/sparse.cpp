#include "linalg/sparse.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace sysgo::linalg {

SparseMatrix::SparseMatrix(std::size_t rows, std::size_t cols,
                           std::vector<Triplet> entries)
    : rows_(rows), cols_(cols) {
  for (const auto& t : entries)
    if (t.row >= rows_ || t.col >= cols_)
      throw std::out_of_range("SparseMatrix: triplet outside matrix bounds");

  std::sort(entries.begin(), entries.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });

  row_offsets_.assign(rows_ + 1, 0);
  col_indices_.reserve(entries.size());
  values_.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size();) {
    std::size_t j = i;
    double sum = 0.0;
    while (j < entries.size() && entries[j].row == entries[i].row &&
           entries[j].col == entries[i].col) {
      sum += entries[j].value;
      ++j;
    }
    if (sum != 0.0) {
      col_indices_.push_back(entries[i].col);
      values_.push_back(sum);
      ++row_offsets_[entries[i].row + 1];
    }
    i = j;
  }
  for (std::size_t r = 0; r < rows_; ++r) row_offsets_[r + 1] += row_offsets_[r];
}

std::vector<double> SparseMatrix::mul(std::span<const double> x,
                                      bool parallel) const {
  assert(x.size() == cols_);
  std::vector<double> y(rows_, 0.0);
  auto kernel = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      double s = 0.0;
      for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
        s += values_[k] * x[col_indices_[k]];
      y[r] = s;
    }
  };
  if (parallel)
    util::ThreadPool::instance().run_blocks(rows_, kernel, 4096);
  else
    kernel(0, rows_);
  return y;
}

std::vector<double> SparseMatrix::mul_transpose(std::span<const double> x) const {
  assert(x.size() == rows_);
  std::vector<double> y(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
      y[col_indices_[k]] += values_[k] * xr;
  }
  return y;
}

double SparseMatrix::at(std::size_t r, std::size_t c) const noexcept {
  if (r >= rows_) return 0.0;
  const auto begin = col_indices_.begin() + static_cast<std::ptrdiff_t>(row_offsets_[r]);
  const auto end = col_indices_.begin() + static_cast<std::ptrdiff_t>(row_offsets_[r + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - col_indices_.begin())];
}

Matrix SparseMatrix::to_dense() const {
  Matrix m(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
      m(r, col_indices_[k]) += values_[k];
  return m;
}

double SparseMatrix::inf_norm() const noexcept {
  double m = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
      s += std::fabs(values_[k]);
    m = std::max(m, s);
  }
  return m;
}

double SparseMatrix::one_norm() const noexcept {
  std::vector<double> col(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k)
      col[col_indices_[k]] += std::fabs(values_[k]);
  double m = 0.0;
  for (double v : col) m = std::max(m, v);
  return m;
}

}  // namespace sysgo::linalg
