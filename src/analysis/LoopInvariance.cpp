//===- analysis/LoopInvariance.cpp - "Never exits once entered" loops ----===//

#include "analysis/LoopInvariance.h"

#include "lang/AST.h"
#include "support/Casting.h"

#include <set>

using namespace spe;

namespace {

/// True for a subscript whose base is an array object (not a pointer): the
/// element lives inside the base's own object.
bool indexesArray(const IndexExpr *Ix) {
  return Ix->base()->type()->isArray();
}

/// Root variable of a store target: peels subscripts of array-typed bases
/// and `.` member accesses (a store to `a[i].f` touches only object `a`).
/// Null for dereferences, arrow accesses and subscripts through a pointer,
/// whose target object is unknown.
const VarDecl *storeRoot(const Expr *E) {
  while (E) {
    switch (E->kind()) {
    case Expr::Kind::DeclRef:
      return cast<DeclRefExpr>(E)->decl();
    case Expr::Kind::Index: {
      const auto *Ix = cast<IndexExpr>(E);
      if (!indexesArray(Ix))
        return nullptr;
      E = Ix->base();
      continue;
    }
    case Expr::Kind::Member: {
      const auto *M = cast<MemberExpr>(E);
      if (M->isArrow())
        return nullptr;
      E = M->base();
      continue;
    }
    default:
      return nullptr;
    }
  }
  return nullptr;
}

/// True for `v = v` on one named variable: it stores the value the object
/// already holds, so it changes nothing (reading `v` uninitialized is UB
/// on the first iteration, before the predicate is consulted). Stores
/// through subscripts or pointers (`a[i] = a[i]`, `*p = *p`) stay stores.
bool isSelfAssignment(const BinaryExpr *B) {
  const auto *L = dyn_cast<DeclRefExpr>(B->lhs());
  const auto *R = dyn_cast<DeclRefExpr>(B->rhs());
  return B->op() == BinaryOp::Assign && L && R && L->decl() == R->decl();
}

/// Collects every variable a loop condition reads. \returns false when the
/// condition's value can change without a direct store to one of them (a
/// call, a dereference, an arrow access, a subscript through a pointer) or
/// when it has side effects of its own.
bool collectCondVars(const Expr *E, std::set<const VarDecl *> &Vars) {
  if (!E)
    return true;
  switch (E->kind()) {
  case Expr::Kind::IntegerLiteral:
  case Expr::Kind::StringLiteral:
  case Expr::Kind::SizeOf:
    return true;
  case Expr::Kind::DeclRef: {
    const VarDecl *V = cast<DeclRefExpr>(E)->decl();
    if (V)
      Vars.insert(V);
    return V != nullptr;
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    if (U->op() != UnaryOp::Plus && U->op() != UnaryOp::Neg &&
        U->op() != UnaryOp::LogicalNot && U->op() != UnaryOp::BitNot)
      return false; // Dereference, address-of, increment/decrement.
    return collectCondVars(U->sub(), Vars);
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    return !isAssignmentOp(B->op()) && collectCondVars(B->lhs(), Vars) &&
           collectCondVars(B->rhs(), Vars);
  }
  case Expr::Kind::Conditional: {
    const auto *C = cast<ConditionalExpr>(E);
    return collectCondVars(C->cond(), Vars) &&
           collectCondVars(C->trueExpr(), Vars) &&
           collectCondVars(C->falseExpr(), Vars);
  }
  case Expr::Kind::Index: {
    const auto *Ix = cast<IndexExpr>(E);
    return indexesArray(Ix) && collectCondVars(Ix->base(), Vars) &&
           collectCondVars(Ix->index(), Vars);
  }
  case Expr::Kind::Member: {
    const auto *M = cast<MemberExpr>(E);
    return !M->isArrow() && collectCondVars(M->base(), Vars);
  }
  case Expr::Kind::Cast:
    return collectCondVars(cast<CastExpr>(E)->sub(), Vars);
  default:
    return false; // Calls and initializer lists.
  }
}

/// What a loop body (plus a for-step) can do that might end the loop. The
/// scan stops as soon as it finds a way out.
struct BodyEffects {
  bool MayExit = false; ///< Escape statement, call, or opaque store seen.
  std::set<const VarDecl *> Stored;

  void store(const Expr *Target) {
    if (const VarDecl *Root = storeRoot(Target))
      Stored.insert(Root);
    else
      MayExit = true; // `*p = ...`, `p[i] = ...`, `s->f = ...`.
  }

  void expr(const Expr *E) {
    if (!E || MayExit)
      return;
    switch (E->kind()) {
    case Expr::Kind::Call:
      MayExit = true; // Can store to globals or through escaped pointers.
      return;
    case Expr::Kind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      if (U->op() == UnaryOp::PreInc || U->op() == UnaryOp::PreDec ||
          U->op() == UnaryOp::PostInc || U->op() == UnaryOp::PostDec)
        store(U->sub());
      expr(U->sub());
      return;
    }
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      if (isAssignmentOp(B->op()) && !isSelfAssignment(B))
        store(B->lhs());
      expr(B->lhs());
      expr(B->rhs());
      return;
    }
    case Expr::Kind::Conditional: {
      const auto *C = cast<ConditionalExpr>(E);
      expr(C->cond());
      expr(C->trueExpr());
      expr(C->falseExpr());
      return;
    }
    case Expr::Kind::Index: {
      const auto *Ix = cast<IndexExpr>(E);
      expr(Ix->base());
      expr(Ix->index());
      return;
    }
    case Expr::Kind::Member:
      expr(cast<MemberExpr>(E)->base());
      return;
    case Expr::Kind::Cast:
      expr(cast<CastExpr>(E)->sub());
      return;
    case Expr::Kind::InitList:
      for (const Expr *Elem : cast<InitListExpr>(E)->elements())
        expr(Elem);
      return;
    default:
      return; // Literals, variable reads, unevaluated sizeof operands.
    }
  }

  void stmt(const Stmt *S) {
    if (!S || MayExit)
      return;
    switch (S->kind()) {
    case Stmt::Kind::Break:
    case Stmt::Kind::Return:
    case Stmt::Kind::Goto:
      MayExit = true;
      return;
    case Stmt::Kind::Compound:
      for (const Stmt *Child : cast<CompoundStmt>(S)->body())
        stmt(Child);
      return;
    case Stmt::Kind::Decl:
      // A declaration creates a fresh object: it can never be one of the
      // enclosing condition's variables, only its initializer matters.
      for (const VarDecl *V : cast<DeclStmt>(S)->decls())
        expr(V->init());
      return;
    case Stmt::Kind::Expr:
      expr(cast<ExprStmt>(S)->expr());
      return;
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(S);
      expr(I->cond());
      stmt(I->thenStmt());
      stmt(I->elseStmt());
      return;
    }
    case Stmt::Kind::While: {
      const auto *W = cast<WhileStmt>(S);
      expr(W->cond());
      stmt(W->body());
      return;
    }
    case Stmt::Kind::Do: {
      const auto *D = cast<DoStmt>(S);
      stmt(D->body());
      expr(D->cond());
      return;
    }
    case Stmt::Kind::For: {
      const auto *F = cast<ForStmt>(S);
      stmt(F->init());
      expr(F->cond());
      expr(F->step());
      stmt(F->body());
      return;
    }
    case Stmt::Kind::Label:
      stmt(cast<LabelStmt>(S)->sub());
      return;
    default:
      return; // Continue: back to the condition, which is the point.
    }
  }
};

bool neverExits(const Expr *Cond, const Stmt *Body, const Expr *Step) {
  std::set<const VarDecl *> CondVars;
  if (!collectCondVars(Cond, CondVars))
    return false;
  BodyEffects B;
  B.stmt(Body);
  B.expr(Step);
  if (B.MayExit)
    return false;
  for (const VarDecl *V : B.Stored)
    if (CondVars.count(V))
      return false;
  return true;
}

} // namespace

bool spe::loopNeverExits(const Stmt *Loop) {
  if (const auto *W = dyn_cast<WhileStmt>(Loop))
    return neverExits(W->cond(), W->body(), nullptr);
  if (const auto *D = dyn_cast<DoStmt>(Loop))
    return neverExits(D->cond(), D->body(), nullptr);
  if (const auto *F = dyn_cast<ForStmt>(Loop))
    return neverExits(F->cond(), F->body(), F->step());
  return false;
}
