#include "incr/ring/provenance.h"

#include <cmath>
#include <iterator>

namespace incr {

Polynomial Polynomial::Constant(int64_t c) {
  Polynomial p;
  if (c != 0) p.terms_[Monomial{}] = c;
  return p;
}

Polynomial Polynomial::Var(uint32_t id) {
  Polynomial p;
  p.terms_[Monomial{{id, 1}}] = 1;
  return p;
}

Polynomial Polynomial::operator+(const Polynomial& other) const {
  Polynomial out = *this;
  for (const auto& [mono, coef] : other.terms_) {
    auto it = out.terms_.find(mono);
    if (it == out.terms_.end()) {
      out.terms_.emplace(mono, coef);
    } else {
      it->second += coef;
      if (it->second == 0) out.terms_.erase(it);
    }
  }
  return out;
}

Polynomial Polynomial::operator*(const Polynomial& other) const {
  Polynomial out;
  for (const auto& [ma, ca] : terms_) {
    for (const auto& [mb, cb] : other.terms_) {
      Monomial m = ma;
      for (const auto& [var, pow] : mb) m[var] += pow;
      int64_t c = ca * cb;
      auto it = out.terms_.find(m);
      if (it == out.terms_.end()) {
        out.terms_.emplace(std::move(m), c);
      } else {
        it->second += c;
        if (it->second == 0) out.terms_.erase(it);
      }
    }
  }
  return out;
}

Polynomial Polynomial::operator-() const {
  Polynomial out = *this;
  for (auto& [mono, coef] : out.terms_) coef = -coef;
  return out;
}

int64_t Polynomial::Eval(const std::map<uint32_t, int64_t>& assignment) const {
  int64_t total = 0;
  for (const auto& [mono, coef] : terms_) {
    int64_t term = coef;
    for (const auto& [var, pow] : mono) {
      auto it = assignment.find(var);
      int64_t v = it == assignment.end() ? 1 : it->second;
      for (uint32_t i = 0; i < pow; ++i) term *= v;
    }
    total += term;
  }
  return total;
}

std::string Polynomial::ToString() const {
  if (terms_.empty()) return "0";
  std::string out;
  bool first = true;
  for (const auto& [mono, coef] : terms_) {
    if (!first) out += " + ";
    first = false;
    bool printed = false;
    if (coef != 1 || mono.empty()) {
      out += std::to_string(coef);
      printed = true;
    }
    for (const auto& [var, pow] : mono) {
      if (printed) out += "*";
      out += 'x';
      out += std::to_string(var);
      if (pow > 1) {
        out += '^';
        out += std::to_string(pow);
      }
      printed = true;
    }
  }
  return out;
}

Polynomial Polynomial::FromTerms(std::map<Monomial, int64_t> terms) {
  Polynomial p;
  for (auto it = terms.begin(); it != terms.end();) {
    it = it->second == 0 ? terms.erase(it) : std::next(it);
  }
  p.terms_ = std::move(terms);
  return p;
}

}  // namespace incr
