#include "util/fraction.hpp"

#include <numeric>
#include <ostream>
#include <sstream>

#include "util/check.hpp"

namespace dsp {

namespace {

using Int128 = __int128;

std::int64_t checked_narrow(Int128 v, const char* context) {
  DSP_REQUIRE(v <= INT64_MAX && v >= INT64_MIN,
              "Fraction overflow in " << context);
  return static_cast<std::int64_t>(v);
}

}  // namespace

Fraction::Fraction(std::int64_t numerator, std::int64_t denominator)
    : num_(numerator), den_(denominator) {
  DSP_REQUIRE(denominator != 0, "Fraction with zero denominator");
  normalize();
}

void Fraction::normalize() {
  if (den_ < 0) {
    num_ = -num_;
    den_ = -den_;
  }
  const std::int64_t g = std::gcd(num_, den_);
  if (g > 1) {
    num_ /= g;
    den_ /= g;
  }
  if (num_ == 0) den_ = 1;
}

Fraction Fraction::operator+(const Fraction& o) const {
  const Int128 n = Int128(num_) * o.den_ + Int128(o.num_) * den_;
  const Int128 d = Int128(den_) * o.den_;
  // Reduce in 128 bits before narrowing to keep intermediate growth in check.
  Int128 nn = n, dd = d;
  if (nn != 0) {
    Int128 a = nn < 0 ? -nn : nn, b = dd;
    while (b != 0) {
      const Int128 t = a % b;
      a = b;
      b = t;
    }
    nn /= a;
    dd /= a;
  } else {
    dd = 1;
  }
  return Fraction(checked_narrow(nn, "operator+"), checked_narrow(dd, "operator+"));
}

Fraction Fraction::operator-(const Fraction& o) const { return *this + (-o); }

Fraction Fraction::operator*(const Fraction& o) const {
  // Cross-reduce first so most products stay within 64 bits.
  const std::int64_t g1 = std::gcd(num_, o.den_);
  const std::int64_t g2 = std::gcd(o.num_, den_);
  const Int128 n = Int128(num_ / g1) * (o.num_ / g2);
  const Int128 d = Int128(den_ / g2) * (o.den_ / g1);
  return Fraction(checked_narrow(n, "operator*"), checked_narrow(d, "operator*"));
}

Fraction Fraction::operator/(const Fraction& o) const {
  DSP_REQUIRE(o.num_ != 0, "Fraction division by zero");
  return *this * Fraction(o.den_, o.num_);
}

Fraction Fraction::operator-() const {
  Fraction r;
  r.num_ = -num_;
  r.den_ = den_;
  return r;
}

bool Fraction::operator<(const Fraction& o) const {
  return Int128(num_) * o.den_ < Int128(o.num_) * den_;
}

std::int64_t Fraction::floor() const {
  if (num_ >= 0) return num_ / den_;
  return -((-num_ + den_ - 1) / den_);
}

std::int64_t Fraction::ceil() const {
  if (num_ >= 0) return (num_ + den_ - 1) / den_;
  return -((-num_) / den_);
}

std::string Fraction::to_string() const {
  std::ostringstream oss;
  oss << *this;
  return oss.str();
}

std::ostream& operator<<(std::ostream& os, const Fraction& f) {
  os << f.num();
  if (f.den() != 1) os << '/' << f.den();
  return os;
}

std::int64_t floor_mul(std::int64_t value, const Fraction& f) {
  const Int128 p = Int128(value) * f.num();
  Int128 q = p / f.den();
  if (p % f.den() != 0 && ((p < 0) != (f.den() < 0))) --q;
  return checked_narrow(q, "floor_mul");
}

std::int64_t ceil_mul(std::int64_t value, const Fraction& f) {
  const Int128 p = Int128(value) * f.num();
  Int128 q = p / f.den();
  if (p % f.den() != 0 && ((p > 0) == (f.den() > 0))) ++q;
  return checked_narrow(q, "ceil_mul");
}

}  // namespace dsp
