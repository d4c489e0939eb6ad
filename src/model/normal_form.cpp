#include "model/normal_form.hpp"

#include <cmath>
#include <cstdio>

namespace ovp::model {

namespace {

/// Shortest %g rendering that still round-trips typical magnitudes; model
/// files print coefficients separately (with full precision) when needed.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

double Term::basis(double n) const {
  if (n < 1.0) n = 1.0;
  double v = 1.0;
  if (exp_num != 0) {
    v = std::pow(n, static_cast<double>(exp_num) /
                        static_cast<double>(exp_den));
  }
  if (log_exp != 0) {
    v *= std::pow(std::log2(n), static_cast<double>(log_exp));
  }
  return v;
}

std::string Term::describeBasis() const {
  // Appends only: GCC 12 -O3 reports false -Wrestrict overlaps on
  // `"n^" + string` and on assigning a literal to `out`.
  std::string out;
  if (exp_num != 0) {
    out += 'n';
    if (exp_den != 1) {
      out.append("^(").append(std::to_string(exp_num)).append("/");
      out.append(std::to_string(exp_den)).append(")");
    } else if (exp_num != 1) {
      out.append("^").append(std::to_string(exp_num));
    }
  }
  if (log_exp != 0) {
    if (!out.empty()) out += "*";
    out += "log2(n)";
    if (log_exp != 1) out.append("^").append(std::to_string(log_exp));
  }
  return out.empty() ? "1" : out;
}

double Model::eval(double n) const {
  double v = constant;
  for (const Term& t : terms) v += t.coeff * t.basis(n);
  return v;
}

std::string Model::describe() const {
  std::string out = num(constant);
  for (const Term& t : terms) {
    const bool neg = t.coeff < 0;
    out += neg ? " - " : " + ";
    out += num(neg ? -t.coeff : t.coeff);
    const std::string basis = t.describeBasis();
    if (basis != "1") out += "*" + basis;
  }
  return out;
}

}  // namespace ovp::model
