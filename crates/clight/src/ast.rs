//! Abstract syntax of CompCert Clight (the subset of §4.1).
//!
//! Mirroring Clight, expressions are free of side effects, loops are
//! infinite unless exited by `break` or `return`, and function calls are
//! statements whose destination is a local scalar variable. The parser
//! lowers C `while`/`for` loops and the short-circuit operators `&&`/`||`
//! into this core syntax.

use crate::Ty;
use mem::{Binop, Unop};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// A side-effect-free Clight expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal with its type (`U32` or `I32`).
    Const(u32, Ty),
    /// A variable: local, parameter, or global (resolved by the checker).
    Var(String),
    /// Unary operation.
    Unop(Unop, Box<Expr>),
    /// Binary operation. The signedness of division, modulo, right shift
    /// and comparisons is resolved by the type checker (parser emits the
    /// signed variant, the checker rewrites to unsigned when C's usual
    /// arithmetic conversions say so).
    Binop(Binop, Box<Expr>, Box<Expr>),
    /// Array indexing `a[i]`; also valid on pointers.
    Index(Box<Expr>, Box<Expr>),
    /// Pointer dereference `*p`.
    Deref(Box<Expr>),
    /// Address-of `&lv` where `lv` is an lvalue expression.
    Addr(Box<Expr>),
    /// Pure conditional `c ? t : e`, evaluated lazily. Produced by the
    /// parser when lowering `&&` and `||`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Type cast `(ty)e` between scalar types.
    Cast(Ty, Box<Expr>),
    /// A function call in expression position. CompCert C allows these but
    /// Clight does not: the parser only produces this variant transiently
    /// as the right-hand side of an assignment, where it is immediately
    /// lowered to [`Stmt::Call`]. The type checker rejects any that remain.
    Call0(String, Vec<Expr>),
}

impl Expr {
    /// Convenience constructor for an unsigned constant.
    pub fn uint(n: u32) -> Expr {
        Expr::Const(n, Ty::U32)
    }

    /// Convenience constructor for a signed constant.
    pub fn int(n: i32) -> Expr {
        Expr::Const(n as u32, Ty::I32)
    }

    /// Convenience constructor for a variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Convenience constructor for a binary operation.
    pub fn binop(op: Binop, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binop(op, Box::new(lhs), Box::new(rhs))
    }

    /// True when the expression can appear in lvalue position.
    pub fn is_lvalue(&self) -> bool {
        matches!(self, Expr::Var(_) | Expr::Index(..) | Expr::Deref(_))
    }

    /// Number of AST nodes in the expression (itself included).
    pub fn node_count(&self) -> u64 {
        1 + match self {
            Expr::Const(..) | Expr::Var(_) => 0,
            Expr::Unop(_, e) | Expr::Deref(e) | Expr::Addr(e) | Expr::Cast(_, e) => e.node_count(),
            Expr::Binop(_, a, b) | Expr::Index(a, b) => a.node_count() + b.node_count(),
            Expr::Cond(c, t, e) => c.node_count() + t.node_count() + e.node_count(),
            Expr::Call0(_, args) => args.iter().map(Expr::node_count).sum(),
        }
    }

    /// Collects the names of all variables read by the expression.
    pub fn variables(&self, out: &mut HashSet<String>) {
        match self {
            Expr::Const(..) => {}
            Expr::Var(x) => {
                out.insert(x.clone());
            }
            Expr::Unop(_, e) | Expr::Deref(e) | Expr::Addr(e) | Expr::Cast(_, e) => {
                e.variables(out)
            }
            Expr::Binop(_, a, b) | Expr::Index(a, b) => {
                a.variables(out);
                b.variables(out);
            }
            Expr::Cond(c, t, e) => {
                c.variables(out);
                t.variables(out);
                e.variables(out);
            }
            Expr::Call0(_, args) => {
                for a in args {
                    a.variables(out);
                }
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(n, Ty::I32) => write!(f, "{}", *n as i32),
            Expr::Const(n, _) => write!(f, "{n}"),
            Expr::Var(x) => write!(f, "{x}"),
            Expr::Unop(op, e) => write!(f, "{op}({e})"),
            Expr::Binop(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::Index(a, i) => write!(f, "{a}[{i}]"),
            Expr::Deref(e) => write!(f, "*({e})"),
            Expr::Addr(e) => write!(f, "&({e})"),
            Expr::Cond(c, t, e) => write!(f, "({c} ? {t} : {e})"),
            Expr::Cast(ty, e) => write!(f, "({ty})({e})"),
            Expr::Call0(g, args) => {
                write!(f, "{g}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A Clight statement.
///
/// Sub-statements are reference-counted so the small-step interpreter can
/// keep cheap handles to program fragments inside continuations. The
/// count is atomic ([`Arc`], not `Rc`) so a type-checked [`Program`] can
/// be sent between threads, e.g. out of the `stackbound::par_map`
/// workers that prepare the Table 2 cases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `skip;` — does nothing.
    Skip,
    /// `lv = e;` — assignment to an lvalue.
    Assign(Expr, Expr),
    /// `x = f(args);` or `f(args);` — function call. The destination, when
    /// present, must be a local scalar variable (Clight restriction).
    Call(Option<String>, String, Vec<Expr>),
    /// Sequential composition.
    Seq(Arc<Stmt>, Arc<Stmt>),
    /// `if (e) s1 else s2`.
    If(Expr, Arc<Stmt>, Arc<Stmt>),
    /// Clight `Sloop(body, incr)`: runs `body` then `incr` forever.
    /// `break` exits the loop, `continue` skips to `incr`. C `while` and
    /// `for` loops are lowered to this form.
    Loop(Arc<Stmt>, Arc<Stmt>),
    /// Exits the innermost loop.
    Break,
    /// Skips to the increment statement of the innermost loop.
    Continue,
    /// Returns from the current function.
    Return(Option<Expr>),
}

impl Stmt {
    /// `s1; s2` with skip-elimination.
    pub fn seq(s1: Stmt, s2: Stmt) -> Stmt {
        match (&s1, &s2) {
            (Stmt::Skip, _) => s2,
            (_, Stmt::Skip) => s1,
            _ => Stmt::Seq(Arc::new(s1), Arc::new(s2)),
        }
    }

    /// Folds a list of statements into right-nested sequences
    /// (`s1; (s2; (s3; …))`), the shape Hoare-logic derivations expect.
    pub fn block(stmts: Vec<Stmt>) -> Stmt {
        stmts
            .into_iter()
            .rev()
            .fold(Stmt::Skip, |acc, s| Stmt::seq(s, acc))
    }

    /// Calls `f` on this statement and every sub-statement (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&Stmt)) {
        f(self);
        match self {
            Stmt::Seq(a, b) | Stmt::Loop(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Stmt::If(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            _ => {}
        }
    }

    /// Number of AST nodes in the statement, expressions included.
    pub fn node_count(&self) -> u64 {
        match self {
            Stmt::Skip | Stmt::Break | Stmt::Continue => 1,
            Stmt::Assign(lv, e) => 1 + lv.node_count() + e.node_count(),
            Stmt::Call(_, _, args) => 1 + args.iter().map(Expr::node_count).sum::<u64>(),
            Stmt::Seq(a, b) | Stmt::Loop(a, b) => 1 + a.node_count() + b.node_count(),
            Stmt::If(c, t, e) => 1 + c.node_count() + t.node_count() + e.node_count(),
            Stmt::Return(e) => 1 + e.as_ref().map_or(0, Expr::node_count),
        }
    }

    /// Names of all functions this statement calls (directly).
    pub fn callees(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |s| {
            if let Stmt::Call(_, f, _) = s {
                if !out.contains(f) {
                    out.push(f.clone());
                }
            }
        });
        out
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stmt::Skip => write!(f, "skip;"),
            Stmt::Assign(lv, e) => write!(f, "{lv} = {e};"),
            Stmt::Call(Some(d), g, args) => {
                write!(f, "{d} = {g}(")?;
                fmt_args(f, args)?;
                write!(f, ");")
            }
            Stmt::Call(None, g, args) => {
                write!(f, "{g}(")?;
                fmt_args(f, args)?;
                write!(f, ");")
            }
            Stmt::Seq(a, b) => write!(f, "{a} {b}"),
            Stmt::If(c, t, e) => write!(f, "if ({c}) {{ {t} }} else {{ {e} }}"),
            Stmt::Loop(b, i) => write!(f, "loop {{ {b} /* incr: */ {i} }}"),
            Stmt::Break => write!(f, "break;"),
            Stmt::Continue => write!(f, "continue;"),
            Stmt::Return(Some(e)) => write!(f, "return {e};"),
            Stmt::Return(None) => write!(f, "return;"),
        }
    }
}

fn fmt_args(f: &mut fmt::Formatter<'_>, args: &[Expr]) -> fmt::Result {
    for (i, a) in args.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{a}")?;
    }
    Ok(())
}

/// A local variable declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalVar {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: Ty,
}

/// An internal function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Return type, or `None` for `void`.
    pub ret: Option<Ty>,
    /// Parameters in order (always scalar types).
    pub params: Vec<LocalVar>,
    /// Local variables.
    pub locals: Vec<LocalVar>,
    /// Function body.
    pub body: Arc<Stmt>,
    /// Names of locals that must live in memory: arrays, and scalars whose
    /// address is taken. Filled in by the type checker.
    pub addressable: HashSet<String>,
}

impl Function {
    /// Looks up the declared type of a parameter or local.
    pub fn var_ty(&self, name: &str) -> Option<&Ty> {
        self.params
            .iter()
            .chain(&self.locals)
            .find(|v| v.name == name)
            .map(|v| &v.ty)
    }

    /// True when `name` is a parameter.
    pub fn is_param(&self, name: &str) -> bool {
        self.params.iter().any(|p| p.name == name)
    }
}

/// An external function declaration (`extern u32 f(u32, u32);`).
///
/// Externals produce I/O events when called; their result is computed by a
/// deterministic hash of the arguments so that every interpreter in the
/// pipeline observes identical I/O traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct External {
    /// Function name.
    pub name: String,
    /// Return type, or `None` for void.
    pub ret: Option<Ty>,
    /// Number of parameters.
    pub arity: usize,
}

/// A global variable definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalVar {
    /// Global name.
    pub name: String,
    /// Declared type.
    pub ty: Ty,
    /// Initial word values; missing words are zero.
    pub init: Vec<u32>,
}

/// A complete Clight program: globals, externals, functions, and `main`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Global variables.
    pub globals: Vec<GlobalVar>,
    /// External (I/O) function declarations.
    pub externals: Vec<External>,
    /// Internal function definitions.
    pub functions: Vec<Function>,
}

impl Program {
    /// Looks up an internal function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Looks up an external declaration by name.
    pub fn external(&self, name: &str) -> Option<&External> {
        self.externals.iter().find(|e| e.name == name)
    }

    /// Looks up a global variable by name.
    pub fn global(&self, name: &str) -> Option<&GlobalVar> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Names of all internal functions, in definition order.
    pub fn function_names(&self) -> impl Iterator<Item = &str> {
        self.functions.iter().map(|f| f.name.as_str())
    }

    /// Total number of AST nodes across all function bodies (one node per
    /// function on top of its body).
    pub fn node_count(&self) -> u64 {
        self.functions.iter().map(|f| 1 + f.body.node_count()).sum()
    }
}
