// Quasi-affine integer expressions over the symbolic rank `r`, the job
// size `P`, and enclosing loop variables.
//
// This is the term language of the rank-symbolic skeleton IR: peers, tags,
// byte counts, flop counts, loop bounds and guard atoms are all Expr trees.
// The language is deliberately small — affine arithmetic plus the handful
// of quasi-affine operators the NAS builders actually need (floor division,
// modulo, powers of two for dissemination/binomial patterns, ceil-log2 for
// their level counts, the block distribution, and the 3-D process-grid
// factors) — so that the symbolic matching/deadlock provers can reason
// about peer expressions by normalization and structural matching instead
// of a general integer decision procedure.
//
// Division and modulo are *floor* variants (result of mod is in [0, m) for
// m > 0); on the non-negative operands the builders produce this agrees
// with C++ `/` and `%`.
//
// `Sum` and `Ind` exist for the closed-form cost layer: a cost term is an
// expression over P only, where residues the simplifier cannot collapse
// stay as explicit bounded sums (still evaluable in O(P) without building
// the skeleton).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ovp::skel::sym {

enum class ExprKind : std::uint8_t {
  Const,     // integer literal (kAnyBytes = -1 is representable)
  Rank,      // the symbolic rank r, in [0, P)
  Procs,     // the symbolic job size P, >= 1
  Var,       // loop variable bound by an enclosing loop (or Sum)
  Add,       // a + b
  Sub,       // a - b
  Mul,       // a * b
  Div,       // floor(a / b), b != 0
  Mod,       // a mod b in [0, b), b > 0
  Min,       // min(a, b)
  Max,       // max(a, b)
  Pow2,      // 2^a, a >= 0
  CeilLog2,  // smallest L >= 0 with 2^L >= a, a >= 1
  Fac3X,     // factor3d(a).px  (near-cubic 3-D grid, px <= py <= pz)
  Fac3Y,     // factor3d(a).py
  Fac3Z,     // factor3d(a).pz
  Fac2X,     // factor2d(a).px  (largest px <= sqrt(a) dividing a)
  Fac2Y,     // factor2d(a).py
  BlockSize,  // blockDistribute(n=a0, parts=a1).size[a2]
  Sum,        // sum over `var` in [a0, a1) of a2      (cost layer)
  Ind,        // 1 when (a0 cmp a1) holds, else 0      (cost layer)
};

enum class CmpOp : std::uint8_t { Eq, Ne, Lt, Le, Gt, Ge };

[[nodiscard]] const char* cmpOpName(CmpOp op);  // "==", "!=", "<", ...

struct Expr;
/// Shared immutable subtrees; builders reuse common pieces freely.
using ExprP = std::shared_ptr<const Expr>;

struct Expr {
  ExprKind kind = ExprKind::Const;
  std::int64_t value = 0;  // Const
  std::string var;         // Var: name; Sum: bound variable
  CmpOp cmp = CmpOp::Eq;   // Ind
  std::vector<ExprP> args;
};

// ---- constructors ----
[[nodiscard]] ExprP cst(std::int64_t v);
[[nodiscard]] ExprP rnk();
[[nodiscard]] ExprP procs();
[[nodiscard]] ExprP var(std::string name);
[[nodiscard]] ExprP add(ExprP a, ExprP b);
[[nodiscard]] ExprP sub(ExprP a, ExprP b);
[[nodiscard]] ExprP mul(ExprP a, ExprP b);
[[nodiscard]] ExprP floordiv(ExprP a, ExprP b);
[[nodiscard]] ExprP mod(ExprP a, ExprP b);
[[nodiscard]] ExprP emax(ExprP a, ExprP b);
[[nodiscard]] ExprP pow2(ExprP a);
[[nodiscard]] ExprP clog2(ExprP a);
[[nodiscard]] ExprP fac3x(ExprP a);
[[nodiscard]] ExprP fac3y(ExprP a);
[[nodiscard]] ExprP fac3z(ExprP a);
[[nodiscard]] ExprP fac2x(ExprP a);
[[nodiscard]] ExprP fac2y(ExprP a);
[[nodiscard]] ExprP blocksize(ExprP n, ExprP parts, ExprP index);
[[nodiscard]] ExprP sum(std::string v, ExprP begin, ExprP end, ExprP body);
[[nodiscard]] ExprP ind(ExprP lhs, CmpOp op, ExprP rhs);

/// One guard atom: `lhs cmp rhs`.
struct Cond {
  ExprP lhs;
  CmpOp op = CmpOp::Eq;
  ExprP rhs;
};
/// A guard is a conjunction of atoms (empty = always true).
using Guard = std::vector<Cond>;

/// Evaluation environment: concrete rank and job size plus loop bindings.
struct Env {
  std::int64_t r = 0;
  std::int64_t P = 1;
  std::map<std::string, std::int64_t, std::less<>> vars;
};

/// Evaluates `e` under `env`.  False on malformed input (unbound variable,
/// division by zero, pow2 of a negative, ...); `out` is unspecified then.
[[nodiscard]] bool eval(const ExprP& e, const Env& env, std::int64_t& out);
[[nodiscard]] bool evalCond(const Cond& c, const Env& env, bool& out);
/// Conjunction; false return = evaluation error (not "guard is false").
[[nodiscard]] bool evalGuard(const Guard& g, const Env& env, bool& out);

/// Canonical text form.  Binary operators are always parenthesized
/// ("(a + b)"), functions use call syntax ("pow2(k)"), so the grammar is
/// LL(1) and parseExpr() is the strict inverse.
[[nodiscard]] std::string toString(const ExprP& e);
[[nodiscard]] std::string toString(const Cond& c);
[[nodiscard]] std::string toString(const Guard& g);  // " && "-joined; "true"

/// Parses the canonical text form; null + `error` set on failure.
[[nodiscard]] ExprP parseExpr(std::string_view text, std::string& error);

/// Structural equality (kind, value, var, cmp, args — no rewriting).
[[nodiscard]] bool equal(const ExprP& a, const ExprP& b);
[[nodiscard]] bool equal(const Cond& a, const Cond& b);

/// Replaces every Rank leaf with `replacement`.
[[nodiscard]] ExprP substRank(const ExprP& e, const ExprP& replacement);
/// True when `e` mentions the Rank leaf / the named variable.
[[nodiscard]] bool mentionsRank(const ExprP& e);
[[nodiscard]] bool mentionsVar(const ExprP& e, std::string_view name);

/// Light algebraic normalization: constant folding, +0/*1/*0 identities,
/// (x - 0) -> x, mod((x + P), P) -> mod(x, P), mod(r, P) -> r, and
/// canonical ordering of commutative operands.  Used by the provers before
/// structural comparison; not applied by the builders (the IR keeps the
/// emission shape the schemas expect).
[[nodiscard]] ExprP simplify(const ExprP& e);

// The process-grid factorizations behind the fac2/fac3 atoms.  They are
// the only copy: src/nas's kernels take their grids from here too, so a
// template's grid is the kernel's grid by construction.
struct Grid2 {
  std::int64_t px = 1, py = 1;
};
struct Grid3 {
  std::int64_t px = 1, py = 1, pz = 1;
};
/// Largest px <= sqrt(p) with p % px == 0, and py = p / px.
[[nodiscard]] Grid2 factor2d(std::int64_t p);
/// Near-cubic px <= py <= pz with px * py * pz == p (smallest pz / px).
[[nodiscard]] Grid3 factor3d(std::int64_t p);
/// The same, remembering the last argument per thread (Expr evaluation
/// asks for one P at every op of every rank).
[[nodiscard]] Grid2 symFactor2d(std::int64_t p);
[[nodiscard]] Grid3 symFactor3d(std::int64_t p);

}  // namespace ovp::skel::sym
