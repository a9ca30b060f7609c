#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace dsp {

/// Exact rational arithmetic on 64-bit numerator/denominator, always kept in
/// lowest terms with a positive denominator.
///
/// Used wherever the paper computes thresholds such as delta*H' or
/// (1/4+eps)*H': doing these in floating point risks misclassifying items
/// whose size sits exactly on a category boundary, which breaks the
/// structural lemmas.  Overflow is checked and reported via InvalidInput.
class Fraction {
 public:
  constexpr Fraction() = default;
  Fraction(std::int64_t numerator, std::int64_t denominator);
  /// Implicit conversion from integers so `f * 3` and `Fraction(1,4) + 1`
  /// read naturally.
  Fraction(std::int64_t value) : num_(value), den_(1) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] std::int64_t num() const { return num_; }
  [[nodiscard]] std::int64_t den() const { return den_; }

  [[nodiscard]] Fraction operator+(const Fraction& o) const;
  [[nodiscard]] Fraction operator-(const Fraction& o) const;
  [[nodiscard]] Fraction operator*(const Fraction& o) const;
  [[nodiscard]] Fraction operator/(const Fraction& o) const;
  [[nodiscard]] Fraction operator-() const;

  Fraction& operator+=(const Fraction& o) { return *this = *this + o; }
  Fraction& operator-=(const Fraction& o) { return *this = *this - o; }
  Fraction& operator*=(const Fraction& o) { return *this = *this * o; }
  Fraction& operator/=(const Fraction& o) { return *this = *this / o; }

  [[nodiscard]] bool operator==(const Fraction& o) const {
    return num_ == o.num_ && den_ == o.den_;
  }
  [[nodiscard]] bool operator!=(const Fraction& o) const { return !(*this == o); }
  [[nodiscard]] bool operator<(const Fraction& o) const;
  [[nodiscard]] bool operator>(const Fraction& o) const { return o < *this; }
  [[nodiscard]] bool operator<=(const Fraction& o) const { return !(o < *this); }
  [[nodiscard]] bool operator>=(const Fraction& o) const { return !(*this < o); }

  /// Largest integer <= value.
  [[nodiscard]] std::int64_t floor() const;
  /// Smallest integer >= value.
  [[nodiscard]] std::int64_t ceil() const;
  [[nodiscard]] std::string to_string() const;

 private:
  void normalize();

  std::int64_t num_ = 0;
  std::int64_t den_ = 1;
};

std::ostream& operator<<(std::ostream& os, const Fraction& f);

/// floor(value * f) computed exactly in 128-bit intermediate arithmetic.
[[nodiscard]] std::int64_t floor_mul(std::int64_t value, const Fraction& f);
/// ceil(value * f) computed exactly in 128-bit intermediate arithmetic.
[[nodiscard]] std::int64_t ceil_mul(std::int64_t value, const Fraction& f);

}  // namespace dsp
