// Minimal dense linear algebra for the solvers: row-major matrices, LU solve
// with partial pivoting. Sizes here are tiny (tens to low hundreds), so a
// straightforward O(n^3) implementation is the right tool.
//
// COBYLA refits m + 1 linear models (objective plus every constraint) on the
// same n x n simplex-difference matrix each iteration, so the LU is split
// into LuFactor (once per matrix) and LuSolveFactored (all right-hand sides
// as the columns of one n x r matrix, so every row operation vectorises
// across them). The split is bit-identical to a one-shot elimination that
// carries a single right-hand side along: the multiplier of row r at pivot
// column `col` stays at (r, col), and a row swap moves only columns >= col,
// so the forward solve replays each right-hand side's operations one for one
// in the original order. The solution, column i of B, is the i-th model's
// gradient, i.e. the gradients come out transposed (n x r); MultiplyTransposed
// then evaluates every model at a point in one pass whose sums accumulate in
// the same index order as Dot.

#ifndef SRC_OPTIM_LINALG_H_
#define SRC_OPTIM_LINALG_H_

#include <cstddef>
#include <span>
#include <vector>

namespace faro {

// Dense row-major matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }
  std::span<double> row(size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const double> row(size_t r) const { return {data_.data() + r * cols_, cols_}; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

// Factors the square matrix `a` in place by Gaussian elimination with partial
// pivoting: U on and above the diagonal, the elimination multipliers below
// it, and in `pivots[col]` the row swapped with `col` at that step. Returns
// false if `a` is empty, not square or numerically singular (a pivot below
// 1e-14); `a` is then partly eliminated.
bool LuFactor(Matrix& a, std::vector<size_t>& pivots);

// Solves A X = B in place for every column of `b` (n x r), given the output
// of a successful LuFactor of A.
void LuSolveFactored(const Matrix& lu, std::span<const size_t> pivots, Matrix& b);

// Solves A x = b by LU with partial pivoting (A is copied). Returns false if
// A is numerically singular; `x` is then left untouched.
bool LuSolve(const Matrix& a, std::span<const double> b, std::vector<double>& x);

// out[i] = sum_k at(k, i) * x[k] for the n x m matrix `at`, accumulated from
// 0.0 in k order, i.e. bitwise Dot(column i of at, x).
void MultiplyTransposed(const Matrix& at, std::span<const double> x, std::span<double> out);

// Dot product of equal-length spans.
double Dot(std::span<const double> a, std::span<const double> b);

// Euclidean norm.
double Norm2(std::span<const double> a);

}  // namespace faro

#endif  // SRC_OPTIM_LINALG_H_
