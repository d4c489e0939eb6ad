#include "skeleton/symbolic/expr.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

namespace ovp::skel::sym {

namespace {

ExprP make(Expr e) { return std::make_shared<const Expr>(std::move(e)); }

ExprP unary(ExprKind k, ExprP a) {
  Expr e;
  e.kind = k;
  e.args = {std::move(a)};
  return make(std::move(e));
}

ExprP binary(ExprKind k, ExprP a, ExprP b) {
  Expr e;
  e.kind = k;
  e.args = {std::move(a), std::move(b)};
  return make(std::move(e));
}

}  // namespace

const char* cmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::Eq: return "==";
    case CmpOp::Ne: return "!=";
    case CmpOp::Lt: return "<";
    case CmpOp::Le: return "<=";
    case CmpOp::Gt: return ">";
    case CmpOp::Ge: return ">=";
  }
  return "?";
}

ExprP cst(std::int64_t v) {
  Expr e;
  e.kind = ExprKind::Const;
  e.value = v;
  return make(std::move(e));
}

ExprP rnk() {
  Expr e;
  e.kind = ExprKind::Rank;
  return make(std::move(e));
}

ExprP procs() {
  Expr e;
  e.kind = ExprKind::Procs;
  return make(std::move(e));
}

ExprP var(std::string name) {
  Expr e;
  e.kind = ExprKind::Var;
  e.var = std::move(name);
  return make(std::move(e));
}

ExprP add(ExprP a, ExprP b) { return binary(ExprKind::Add, std::move(a), std::move(b)); }
ExprP sub(ExprP a, ExprP b) { return binary(ExprKind::Sub, std::move(a), std::move(b)); }
ExprP mul(ExprP a, ExprP b) { return binary(ExprKind::Mul, std::move(a), std::move(b)); }
ExprP floordiv(ExprP a, ExprP b) { return binary(ExprKind::Div, std::move(a), std::move(b)); }
ExprP mod(ExprP a, ExprP b) { return binary(ExprKind::Mod, std::move(a), std::move(b)); }
ExprP emin(ExprP a, ExprP b) { return binary(ExprKind::Min, std::move(a), std::move(b)); }
ExprP emax(ExprP a, ExprP b) { return binary(ExprKind::Max, std::move(a), std::move(b)); }
ExprP pow2(ExprP a) { return unary(ExprKind::Pow2, std::move(a)); }
ExprP clog2(ExprP a) { return unary(ExprKind::CeilLog2, std::move(a)); }
ExprP fac3x(ExprP a) { return unary(ExprKind::Fac3X, std::move(a)); }
ExprP fac3y(ExprP a) { return unary(ExprKind::Fac3Y, std::move(a)); }
ExprP fac3z(ExprP a) { return unary(ExprKind::Fac3Z, std::move(a)); }
ExprP fac2x(ExprP a) { return unary(ExprKind::Fac2X, std::move(a)); }
ExprP fac2y(ExprP a) { return unary(ExprKind::Fac2Y, std::move(a)); }

ExprP blocksize(ExprP n, ExprP parts, ExprP index) {
  Expr e;
  e.kind = ExprKind::BlockSize;
  e.args = {std::move(n), std::move(parts), std::move(index)};
  return make(std::move(e));
}

ExprP sum(std::string v, ExprP begin, ExprP end, ExprP body) {
  Expr e;
  e.kind = ExprKind::Sum;
  e.var = std::move(v);
  e.args = {std::move(begin), std::move(end), std::move(body)};
  return make(std::move(e));
}

ExprP ind(ExprP lhs, CmpOp op, ExprP rhs) {
  Expr e;
  e.kind = ExprKind::Ind;
  e.cmp = op;
  e.args = {std::move(lhs), std::move(rhs)};
  return make(std::move(e));
}

// ---- grid factorizations (kept identical to src/nas/common.cpp; the
// symbolic_test suite cross-checks them against the nas versions) ----

Grid2 symFactor2d(std::int64_t p) {
  Grid2 g;
  for (std::int64_t px = 1; px * px <= p; ++px) {
    if (p % px == 0) {
      g.px = px;
      g.py = p / px;
    }
  }
  return g;
}

Grid3 symFactor3d(std::int64_t p) {
  Grid3 best;
  best.pz = p;
  double best_spread = static_cast<double>(p);
  for (std::int64_t a = 1; a * a * a <= p; ++a) {
    if (p % a != 0) continue;
    const Grid2 rest = symFactor2d(p / a);
    const std::int64_t b = std::min(rest.px, rest.py);
    const std::int64_t c = std::max(rest.px, rest.py);
    if (a > b) continue;
    const double spread =
        static_cast<double>(c) / static_cast<double>(a);
    if (spread < best_spread) {
      best_spread = spread;
      best.px = a;
      best.py = b;
      best.pz = c;
    }
  }
  return best;
}

// ---- evaluation ----

namespace {

std::int64_t floorDiv(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

std::int64_t floorMod(std::int64_t a, std::int64_t b) {
  const std::int64_t m = a % b;
  return (m != 0 && (m < 0) != (b < 0)) ? m + b : m;
}

bool compare(std::int64_t a, CmpOp op, std::int64_t b) {
  switch (op) {
    case CmpOp::Eq: return a == b;
    case CmpOp::Ne: return a != b;
    case CmpOp::Lt: return a < b;
    case CmpOp::Le: return a <= b;
    case CmpOp::Gt: return a > b;
    case CmpOp::Ge: return a >= b;
  }
  return false;
}

bool evalIn(const Expr& e, const Env& env, std::int64_t& out) {
  auto evalArg = [&](std::size_t i, std::int64_t& v) {
    return e.args[i] != nullptr && evalIn(*e.args[i], env, v);
  };
  switch (e.kind) {
    case ExprKind::Const:
      out = e.value;
      return true;
    case ExprKind::Rank:
      out = env.r;
      return true;
    case ExprKind::Procs:
      out = env.P;
      return true;
    case ExprKind::Var: {
      const auto it = env.vars.find(e.var);
      if (it == env.vars.end()) return false;
      out = it->second;
      return true;
    }
    case ExprKind::Add:
    case ExprKind::Sub:
    case ExprKind::Mul:
    case ExprKind::Div:
    case ExprKind::Mod:
    case ExprKind::Min:
    case ExprKind::Max: {
      std::int64_t a = 0;
      std::int64_t b = 0;
      if (!evalArg(0, a) || !evalArg(1, b)) return false;
      switch (e.kind) {
        case ExprKind::Add: out = a + b; return true;
        case ExprKind::Sub: out = a - b; return true;
        case ExprKind::Mul: out = a * b; return true;
        case ExprKind::Div:
          if (b == 0) return false;
          out = floorDiv(a, b);
          return true;
        case ExprKind::Mod:
          if (b <= 0) return false;
          out = floorMod(a, b);
          return true;
        case ExprKind::Min: out = std::min(a, b); return true;
        default: out = std::max(a, b); return true;
      }
    }
    case ExprKind::Pow2: {
      std::int64_t a = 0;
      if (!evalArg(0, a) || a < 0 || a > 62) return false;
      out = std::int64_t{1} << a;
      return true;
    }
    case ExprKind::CeilLog2: {
      std::int64_t a = 0;
      if (!evalArg(0, a) || a < 1) return false;
      std::int64_t l = 0;
      while ((std::int64_t{1} << l) < a) ++l;
      out = l;
      return true;
    }
    case ExprKind::Fac3X:
    case ExprKind::Fac3Y:
    case ExprKind::Fac3Z: {
      std::int64_t a = 0;
      if (!evalArg(0, a) || a < 1) return false;
      const Grid3 g = symFactor3d(a);
      out = e.kind == ExprKind::Fac3X ? g.px
            : e.kind == ExprKind::Fac3Y ? g.py
                                        : g.pz;
      return true;
    }
    case ExprKind::Fac2X:
    case ExprKind::Fac2Y: {
      std::int64_t a = 0;
      if (!evalArg(0, a) || a < 1) return false;
      const Grid2 g = symFactor2d(a);
      out = e.kind == ExprKind::Fac2X ? g.px : g.py;
      return true;
    }
    case ExprKind::BlockSize: {
      std::int64_t n = 0;
      std::int64_t parts = 0;
      std::int64_t i = 0;
      if (!evalArg(0, n) || !evalArg(1, parts) || !evalArg(2, i)) return false;
      if (parts < 1 || n < 0 || i < 0 || i >= parts) return false;
      // Closed form of nas::blockDistribute: the first n%parts parts get
      // one extra element.
      out = n / parts + (i < n % parts ? 1 : 0);
      return true;
    }
    case ExprKind::Sum: {
      std::int64_t b = 0;
      std::int64_t en = 0;
      if (!evalArg(0, b) || !evalArg(1, en)) return false;
      // Guard against runaway ranges: cost sums are O(P)-sized.
      if (en - b > (std::int64_t{1} << 24)) return false;
      // The one binder: the body sees the bound variable in a local copy,
      // so no other node pays for copying the environment.
      Env inner = env;
      std::int64_t& bound = inner.vars[e.var];
      std::int64_t total = 0;
      for (std::int64_t v = b; v < en; ++v) {
        bound = v;
        std::int64_t body = 0;
        if (!evalIn(*e.args[2], inner, body)) return false;
        total += body;
      }
      out = total;
      return true;
    }
    case ExprKind::Ind: {
      std::int64_t a = 0;
      std::int64_t b = 0;
      if (!evalArg(0, a) || !evalArg(1, b)) return false;
      out = compare(a, e.cmp, b) ? 1 : 0;
      return true;
    }
  }
  return false;
}

}  // namespace

bool eval(const ExprP& e, const Env& env, std::int64_t& out) {
  return e != nullptr && evalIn(*e, env, out);
}

bool evalCond(const Cond& c, const Env& env, bool& out) {
  std::int64_t a = 0;
  std::int64_t b = 0;
  if (!eval(c.lhs, env, a) || !eval(c.rhs, env, b)) return false;
  out = compare(a, c.op, b);
  return true;
}

bool evalGuard(const Guard& g, const Env& env, bool& out) {
  out = true;
  for (const Cond& c : g) {
    bool v = false;
    if (!evalCond(c, env, v)) return false;
    if (!v) {
      out = false;
      return true;
    }
  }
  return true;
}

// ---- printing ----

namespace {

const char* binOpToken(ExprKind k) {
  switch (k) {
    case ExprKind::Add: return "+";
    case ExprKind::Sub: return "-";
    case ExprKind::Mul: return "*";
    case ExprKind::Div: return "/";
    case ExprKind::Mod: return "%";
    default: return "?";
  }
}

void print(const ExprP& e, std::string& out) {
  if (e == nullptr) {
    out += "<null>";
    return;
  }
  switch (e->kind) {
    case ExprKind::Const:
      out += std::to_string(e->value);
      return;
    case ExprKind::Rank:
      out += 'r';
      return;
    case ExprKind::Procs:
      out += 'P';
      return;
    case ExprKind::Var:
      out += e->var;
      return;
    case ExprKind::Add:
    case ExprKind::Sub:
    case ExprKind::Mul:
    case ExprKind::Div:
    case ExprKind::Mod:
      out += '(';
      print(e->args[0], out);
      out += ' ';
      out += binOpToken(e->kind);
      out += ' ';
      print(e->args[1], out);
      out += ')';
      return;
    case ExprKind::Min:
    case ExprKind::Max:
      out += e->kind == ExprKind::Min ? "min(" : "max(";
      print(e->args[0], out);
      out += ", ";
      print(e->args[1], out);
      out += ')';
      return;
    case ExprKind::Pow2:
    case ExprKind::CeilLog2:
    case ExprKind::Fac3X:
    case ExprKind::Fac3Y:
    case ExprKind::Fac3Z:
    case ExprKind::Fac2X:
    case ExprKind::Fac2Y: {
      switch (e->kind) {
        case ExprKind::Pow2: out += "pow2("; break;
        case ExprKind::CeilLog2: out += "clog2("; break;
        case ExprKind::Fac3X: out += "fac3x("; break;
        case ExprKind::Fac3Y: out += "fac3y("; break;
        case ExprKind::Fac3Z: out += "fac3z("; break;
        case ExprKind::Fac2X: out += "fac2x("; break;
        default: out += "fac2y("; break;
      }
      print(e->args[0], out);
      out += ')';
      return;
    }
    case ExprKind::BlockSize:
      out += "bsz(";
      print(e->args[0], out);
      out += ", ";
      print(e->args[1], out);
      out += ", ";
      print(e->args[2], out);
      out += ')';
      return;
    case ExprKind::Sum:
      out += "sum(";
      out += e->var;
      out += ", ";
      print(e->args[0], out);
      out += ", ";
      print(e->args[1], out);
      out += ", ";
      print(e->args[2], out);
      out += ')';
      return;
    case ExprKind::Ind:
      out += "ind(";
      print(e->args[0], out);
      out += ' ';
      out += cmpOpName(e->cmp);
      out += ' ';
      print(e->args[1], out);
      out += ')';
      return;
  }
}

}  // namespace

std::string toString(const ExprP& e) {
  std::string out;
  print(e, out);
  return out;
}

std::string toString(const Cond& c) {
  std::string out;
  print(c.lhs, out);
  out += ' ';
  out += cmpOpName(c.op);
  out += ' ';
  print(c.rhs, out);
  return out;
}

std::string toString(const Guard& g) {
  if (g.empty()) return "true";
  std::string out;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (i > 0) out += " && ";
    out += toString(g[i]);
  }
  return out;
}

// ---- parsing ----
//
// Strict inverse of the printer.  Because binaries are always printed fully
// parenthesized, the grammar needs no precedence climbing:
//
//   expr    := INT | 'r' | 'P' | IDENT | func | '(' expr BINOP expr ')'
//   func    := NAME '(' expr {',' expr} ')'           (fixed arities)
//            | 'sum' '(' IDENT ',' expr ',' expr ',' expr ')'
//            | 'ind' '(' expr CMPOP expr ')'

namespace {

struct Parser {
  std::string_view text;
  std::size_t at = 0;
  std::string error;

  void skipSpace() {
    while (at < text.size() &&
           (text[at] == ' ' || text[at] == '\t')) {
      ++at;
    }
  }

  bool fail(std::string msg) {
    if (error.empty()) {
      error = std::move(msg) + " at offset " + std::to_string(at);
    }
    return false;
  }

  bool consume(char c) {
    skipSpace();
    if (at < text.size() && text[at] == c) {
      ++at;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool peekIs(char c) {
    skipSpace();
    return at < text.size() && text[at] == c;
  }

  bool ident(std::string& out) {
    skipSpace();
    std::size_t start = at;
    while (at < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[at])) != 0 ||
            text[at] == '_')) {
      ++at;
    }
    if (at == start) return fail("expected identifier");
    out.assign(text.substr(start, at - start));
    return true;
  }

  bool cmpOp(CmpOp& out) {
    skipSpace();
    const std::string_view rest = text.substr(at);
    auto take = [&](std::string_view tok, CmpOp op) {
      if (rest.substr(0, tok.size()) == tok) {
        at += tok.size();
        out = op;
        return true;
      }
      return false;
    };
    if (take("==", CmpOp::Eq) || take("!=", CmpOp::Ne) ||
        take("<=", CmpOp::Le) || take(">=", CmpOp::Ge) ||
        take("<", CmpOp::Lt) || take(">", CmpOp::Gt)) {
      return true;
    }
    return fail("expected comparison operator");
  }

  ExprP expr() {
    skipSpace();
    if (at >= text.size()) {
      fail("unexpected end of expression");
      return nullptr;
    }
    const char c = text[at];
    if (c == '(') {
      ++at;
      ExprP a = expr();
      if (a == nullptr) return nullptr;
      skipSpace();
      if (at >= text.size()) {
        fail("unexpected end of expression");
        return nullptr;
      }
      ExprKind k;
      switch (text[at]) {
        case '+': k = ExprKind::Add; break;
        case '-': k = ExprKind::Sub; break;
        case '*': k = ExprKind::Mul; break;
        case '/': k = ExprKind::Div; break;
        case '%': k = ExprKind::Mod; break;
        default:
          fail("expected binary operator");
          return nullptr;
      }
      ++at;
      ExprP b = expr();
      if (b == nullptr) return nullptr;
      if (!consume(')')) return nullptr;
      return binary(k, std::move(a), std::move(b));
    }
    if (c == '-' || (std::isdigit(static_cast<unsigned char>(c)) != 0)) {
      std::size_t start = at;
      if (c == '-') ++at;
      std::size_t digits = 0;
      while (at < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[at])) != 0) {
        ++at;
        ++digits;
      }
      if (digits == 0) {
        fail("expected integer literal");
        return nullptr;
      }
      return cst(std::stoll(std::string(text.substr(start, at - start))));
    }
    std::string name;
    if (!ident(name)) return nullptr;
    if (!peekIs('(')) {
      if (name == "r") return rnk();
      if (name == "P") return procs();
      return var(std::move(name));
    }
    ++at;  // '('
    auto fixed = [&](ExprKind k, int arity) -> ExprP {
      Expr e;
      e.kind = k;
      for (int i = 0; i < arity; ++i) {
        if (i > 0 && !consume(',')) return nullptr;
        ExprP a = expr();
        if (a == nullptr) return nullptr;
        e.args.push_back(std::move(a));
      }
      if (!consume(')')) return nullptr;
      return make(std::move(e));
    };
    if (name == "min") return fixed(ExprKind::Min, 2);
    if (name == "max") return fixed(ExprKind::Max, 2);
    if (name == "pow2") return fixed(ExprKind::Pow2, 1);
    if (name == "clog2") return fixed(ExprKind::CeilLog2, 1);
    if (name == "fac3x") return fixed(ExprKind::Fac3X, 1);
    if (name == "fac3y") return fixed(ExprKind::Fac3Y, 1);
    if (name == "fac3z") return fixed(ExprKind::Fac3Z, 1);
    if (name == "fac2x") return fixed(ExprKind::Fac2X, 1);
    if (name == "fac2y") return fixed(ExprKind::Fac2Y, 1);
    if (name == "bsz") return fixed(ExprKind::BlockSize, 3);
    if (name == "sum") {
      std::string v;
      if (!ident(v)) return nullptr;
      if (!consume(',')) return nullptr;
      ExprP b = expr();
      if (b == nullptr) return nullptr;
      if (!consume(',')) return nullptr;
      ExprP en = expr();
      if (en == nullptr) return nullptr;
      if (!consume(',')) return nullptr;
      ExprP body = expr();
      if (body == nullptr) return nullptr;
      if (!consume(')')) return nullptr;
      return sum(std::move(v), std::move(b), std::move(en), std::move(body));
    }
    if (name == "ind") {
      ExprP a = expr();
      if (a == nullptr) return nullptr;
      CmpOp op = CmpOp::Eq;
      if (!cmpOp(op)) return nullptr;
      ExprP b = expr();
      if (b == nullptr) return nullptr;
      if (!consume(')')) return nullptr;
      return ind(std::move(a), op, std::move(b));
    }
    fail("unknown function '" + name + "'");
    return nullptr;
  }
};

}  // namespace

ExprP parseExpr(std::string_view text, std::string& error) {
  Parser p;
  p.text = text;
  ExprP e = p.expr();
  if (e == nullptr) {
    error = p.error.empty() ? "parse error" : p.error;
    return nullptr;
  }
  p.skipSpace();
  if (p.at != text.size()) {
    error = "trailing characters after expression at offset " +
            std::to_string(p.at);
    return nullptr;
  }
  return e;
}

// ---- equality / substitution / traversal ----

bool equal(const ExprP& a, const ExprP& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr) return false;
  if (a->kind != b->kind || a->value != b->value || a->var != b->var ||
      a->cmp != b->cmp || a->args.size() != b->args.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a->args.size(); ++i) {
    if (!equal(a->args[i], b->args[i])) return false;
  }
  return true;
}

bool equal(const Cond& a, const Cond& b) {
  return a.op == b.op && equal(a.lhs, b.lhs) && equal(a.rhs, b.rhs);
}

namespace {

ExprP mapTree(const ExprP& e, const auto& fn) {
  if (e == nullptr) return nullptr;
  ExprP replaced = fn(e);
  if (replaced != nullptr) return replaced;
  bool changed = false;
  std::vector<ExprP> args;
  args.reserve(e->args.size());
  for (const ExprP& a : e->args) {
    ExprP na = mapTree(a, fn);
    changed = changed || na != a;
    args.push_back(std::move(na));
  }
  if (!changed) return e;
  Expr copy = *e;
  copy.args = std::move(args);
  return make(std::move(copy));
}

}  // namespace

ExprP substRank(const ExprP& e, const ExprP& replacement) {
  return mapTree(e, [&](const ExprP& n) -> ExprP {
    return n->kind == ExprKind::Rank ? replacement : nullptr;
  });
}

ExprP substVar(const ExprP& e, std::string_view name,
               const ExprP& replacement) {
  if (e == nullptr) return nullptr;
  if (e->kind == ExprKind::Var && e->var == name) return replacement;
  // A Sum that rebinds `name` shadows it: do not descend into its body.
  const bool shadows = e->kind == ExprKind::Sum && e->var == name;
  bool changed = false;
  std::vector<ExprP> args;
  args.reserve(e->args.size());
  for (std::size_t i = 0; i < e->args.size(); ++i) {
    const bool is_body = e->kind == ExprKind::Sum && i == 2;
    ExprP na = (shadows && is_body) ? e->args[i]
                                    : substVar(e->args[i], name, replacement);
    changed = changed || na != e->args[i];
    args.push_back(std::move(na));
  }
  if (!changed) return e;
  Expr copy = *e;
  copy.args = std::move(args);
  return make(std::move(copy));
}

bool mentionsRank(const ExprP& e) {
  if (e == nullptr) return false;
  if (e->kind == ExprKind::Rank) return true;
  return std::any_of(e->args.begin(), e->args.end(),
                     [](const ExprP& a) { return mentionsRank(a); });
}

bool mentionsVar(const ExprP& e, std::string_view name) {
  if (e == nullptr) return false;
  if (e->kind == ExprKind::Var && e->var == name) return true;
  if (e->kind == ExprKind::Sum && e->var == name) return false;  // shadowed
  return std::any_of(e->args.begin(), e->args.end(), [&](const ExprP& a) {
    return mentionsVar(a, name);
  });
}

// ---- simplification ----

namespace {

bool isConst(const ExprP& e, std::int64_t v) {
  return e != nullptr && e->kind == ExprKind::Const && e->value == v;
}

}  // namespace

ExprP simplify(const ExprP& e) {
  if (e == nullptr) return nullptr;
  Expr work = *e;
  for (ExprP& a : work.args) a = simplify(a);

  // Constant folding for any node whose arguments are all constants and
  // whose value does not depend on r/P/vars.
  const bool all_const =
      !work.args.empty() &&
      std::all_of(work.args.begin(), work.args.end(), [](const ExprP& a) {
        return a != nullptr && a->kind == ExprKind::Const;
      });
  if (all_const && work.kind != ExprKind::Sum) {
    Env env;
    std::int64_t v = 0;
    Expr probe = work;
    if (evalIn(probe, env, v)) return cst(v);
  }

  switch (work.kind) {
    case ExprKind::Add:
      if (isConst(work.args[0], 0)) return work.args[1];
      if (isConst(work.args[1], 0)) return work.args[0];
      // Canonical order for commutative ops: constants last, otherwise by
      // printed form, so that r+1 and 1+r normalize identically.
      {
        const std::string a = toString(work.args[0]);
        const std::string b = toString(work.args[1]);
        const bool a_const = work.args[0]->kind == ExprKind::Const;
        const bool b_const = work.args[1]->kind == ExprKind::Const;
        if ((a_const && !b_const) || (a_const == b_const && a > b)) {
          std::swap(work.args[0], work.args[1]);
        }
      }
      break;
    case ExprKind::Sub:
      if (isConst(work.args[1], 0)) return work.args[0];
      if (equal(work.args[0], work.args[1])) return cst(0);
      break;
    case ExprKind::Mul:
      if (isConst(work.args[0], 0) || isConst(work.args[1], 0)) return cst(0);
      if (isConst(work.args[0], 1)) return work.args[1];
      if (isConst(work.args[1], 1)) return work.args[0];
      {
        const std::string a = toString(work.args[0]);
        const std::string b = toString(work.args[1]);
        const bool a_const = work.args[0]->kind == ExprKind::Const;
        const bool b_const = work.args[1]->kind == ExprKind::Const;
        if ((a_const && !b_const) || (a_const == b_const && a > b)) {
          std::swap(work.args[0], work.args[1]);
        }
      }
      break;
    case ExprKind::Div:
      if (isConst(work.args[1], 1)) return work.args[0];
      break;
    case ExprKind::Mod: {
      // mod(x + P, P) -> mod(x, P) and mod(x - P, P) -> mod(x, P): adding a
      // multiple of the modulus never changes a floor-mod.
      if (work.args[1]->kind == ExprKind::Procs) {
        const ExprP& lhs = work.args[0];
        if (lhs != nullptr &&
            (lhs->kind == ExprKind::Add || lhs->kind == ExprKind::Sub)) {
          if (lhs->args[1]->kind == ExprKind::Procs) {
            return simplify(mod(lhs->args[0], work.args[1]));
          }
          if (lhs->kind == ExprKind::Add &&
              lhs->args[0]->kind == ExprKind::Procs) {
            return simplify(mod(lhs->args[1], work.args[1]));
          }
        }
        // mod(r, P) -> r: the rank is in [0, P) by construction.
        if (work.args[0]->kind == ExprKind::Rank) return work.args[0];
      }
      if (isConst(work.args[1], 1)) return cst(0);
      break;
    }
    case ExprKind::Min:
    case ExprKind::Max:
      if (equal(work.args[0], work.args[1])) return work.args[0];
      break;
    default:
      break;
  }
  return make(std::move(work));
}

}  // namespace ovp::skel::sym
