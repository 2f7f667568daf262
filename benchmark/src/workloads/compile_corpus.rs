//! `compile_corpus` — a generator emits tce programs (functions, nested
//! `if`/`while`/`for`, thick expressions, `parallel` arms, `multi`/`prefix`,
//! `numa` blocks) that are compiled, encoded, decoded, pre-decoded by
//! `TcfMachine::new` and run briefly at thickness 64. `tcf-lang` and
//! `tcf-isa` do most of the work here and microseconds everywhere else.
//!
//! The oracle is [`Eval`], an interpreter of the generator's own syntax
//! tree: expected memory contents never pass through the compiler under
//! test.

use std::fmt::Write;

use tcf_core::Variant;
use tcf_isa::word::Word;

use super::{Job, Scale, Source};
use crate::rng::Rng;

const THICK: usize = 64;
/// Shared scalars `s0..`, then `sel`, from address 64.
const SCALARS: usize = 8;
const SCALAR_BASE: usize = 64;
const SEL: usize = SCALAR_BASE + SCALARS;
/// Arrays `g0..`: a lane reads and writes `g[. + off]` with `off < THICK`.
const ARRAYS: usize = 8;
const ARRAY_LEN: usize = 2 * THICK;
const ARRAY_BASE: usize = 4096;
/// Locals per function: uniform `u0..` and thick `t0..` (tce keeps locals
/// in registers, about twenty per function).
const ULOCALS: usize = 5;
const TLOCALS: usize = 6;
/// One function in `HOT_EVERY` runs on every pass; the others are compiled
/// and (but for the one `sel` names) never run.
const HOT_EVERY: usize = 10;

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    LAnd,
    LOr,
}

const OPS: [(Op, &str); 18] = [
    (Op::Add, "+"),
    (Op::Sub, "-"),
    (Op::Mul, "*"),
    (Op::Div, "/"),
    (Op::Mod, "%"),
    (Op::And, "&"),
    (Op::Or, "|"),
    (Op::Xor, "^"),
    (Op::Shl, "<<"),
    (Op::Shr, ">>"),
    (Op::Lt, "<"),
    (Op::Le, "<="),
    (Op::Gt, ">"),
    (Op::Ge, ">="),
    (Op::Eq, "=="),
    (Op::Ne, "!="),
    (Op::LAnd, "&&"),
    (Op::LOr, "||"),
];

impl Op {
    /// tce's documented semantics (docs/TCE.md), written out here rather
    /// than borrowed from `tcf_isa::AluOp::eval`.
    fn eval(self, a: Word, b: Word) -> Word {
        let sh = (b as u64 & 63) as u32;
        match self {
            Op::Add => a.wrapping_add(b),
            Op::Sub => a.wrapping_sub(b),
            Op::Mul => a.wrapping_mul(b),
            Op::Div if b == 0 => 0,
            Op::Div => a.wrapping_div(b),
            Op::Mod if b == 0 => 0,
            Op::Mod => a.wrapping_rem(b),
            Op::And => a & b,
            Op::Or => a | b,
            Op::Xor => a ^ b,
            Op::Shl => a.wrapping_shl(sh),
            Op::Shr => (a as u64).wrapping_shr(sh) as Word,
            Op::Lt => (a < b) as Word,
            Op::Le => (a <= b) as Word,
            Op::Gt => (a > b) as Word,
            Op::Ge => (a >= b) as Word,
            Op::Eq => (a == b) as Word,
            Op::Ne => (a != b) as Word,
            Op::LAnd => (a != 0 && b != 0) as Word,
            Op::LOr => (a != 0 || b != 0) as Word,
        }
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Add,
    Max,
    Xor,
}

const KINDS: [Kind; 3] = [Kind::Add, Kind::Max, Kind::Xor];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Add => "MPADD",
            Kind::Max => "MPMAX",
            Kind::Xor => "MPXOR",
        }
    }

    fn combine(self, a: Word, b: Word) -> Word {
        match self {
            Kind::Add => a.wrapping_add(b),
            Kind::Max => a.max(b),
            Kind::Xor => a ^ b,
        }
    }
}

enum Expr {
    Int(Word),
    Tid,
    U(usize),
    T(usize),
    Scalar(usize),
    Load(usize, usize),
    Bin(Op, Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    Not(Box<Expr>),
}

enum Stmt {
    AssignU(usize, Expr),
    AssignT(usize, Expr),
    Store(usize, usize, Expr),
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `for (u = 0; u < n; u += 1) { .. }`
    For(usize, Word, Vec<Stmt>),
    /// `u = 0; while (u < n) { ..; u += 1; }`
    While(usize, Word, Vec<Stmt>),
    Multi(usize, Kind, Expr),
    Prefix(usize, usize, Kind, Expr),
    /// Arms `#t: g[. + off] = e;` with `e` free of thick locals and loads.
    Parallel(Vec<(usize, usize, usize, Expr)>),
    /// A sequential section closing a function:
    /// `u0 = 0; u1 = init; while (u0 < n) { u1 = (u1 * mul + u0) & 65535; .. } s = u1;`
    Numa {
        n: Word,
        init: Word,
        mul: Word,
        scalar: usize,
    },
}

/// `main` calls every function; a cold one only when `sel` (input data, so
/// nothing can fold the test away) names it.
struct Prog {
    funcs: Vec<Vec<Stmt>>,
    sel: Word,
}

fn is_cold(func: usize) -> bool {
    !func.is_multiple_of(HOT_EVERY)
}

/// Two streams. `shape` (a constant) draws what steers control flow and
/// program size: statement kinds, nesting, trip counts, every uniform
/// expression, which cold function `sel` names. `vals` (from `--seed`)
/// draws what does not: constants, operators and offsets of thick
/// expressions, combining kinds, input data. Simulated cycles and code
/// size then hardly move with the seed, so runs on different seeds can be
/// compared; the programs and their answers still differ for every seed.
struct Gen<'a> {
    shape: Rng,
    vals: &'a mut Rng,
    /// Loop counters of the enclosing loops: not to be reassigned.
    busy: Vec<usize>,
}

const SHAPE_SEED: u64 = 0x7CF_5EED;

impl Gen<'_> {
    /// A non-zero constant (`x * 0` would turn a thick value uniform, and
    /// with it the number of operations issued).
    fn constant(&mut self) -> Word {
        match self.vals.range(-9, 39) {
            v if v >= 0 => v + 1,
            v => v,
        }
    }

    fn index(&mut self, n: usize) -> usize {
        self.shape.below(n as u64) as usize
    }

    fn offset(&mut self) -> usize {
        self.vals.below(THICK as u64) as usize
    }

    /// An expression every lane agrees on, and every seed.
    fn uniform(&mut self, depth: usize) -> Expr {
        match self.shape.below(if depth == 0 { 2 } else { 4 }) {
            0 => Expr::Int(self.shape.range(-9, 40)),
            1 => Expr::U(self.index(ULOCALS)),
            _ => Expr::Bin(
                self.shape.pick(&OPS).0,
                Box::new(self.uniform(depth - 1)),
                Box::new(self.uniform(depth - 1)),
            ),
        }
    }

    /// A thick expression; `lanes_only` keeps it to what a `parallel` arm
    /// of another thickness may read.
    fn thick(&mut self, depth: usize, lanes_only: bool) -> Expr {
        match self.shape.below(if depth == 0 { 6 } else { 11 }) {
            0 => Expr::Tid,
            1 => Expr::Int(self.constant()),
            2 => Expr::U(self.index(ULOCALS)),
            3 => Expr::Scalar(self.index(SCALARS)),
            4 if !lanes_only => Expr::T(self.index(TLOCALS)),
            5 if !lanes_only => Expr::Load(self.index(ARRAYS), self.offset()),
            4 | 5 => Expr::Tid,
            6 => Expr::Neg(Box::new(self.thick(depth - 1, lanes_only))),
            7 => Expr::Not(Box::new(self.thick(depth - 1, lanes_only))),
            _ => Expr::Bin(
                self.vals.pick(&OPS).0,
                Box::new(self.thick(depth - 1, lanes_only)),
                Box::new(self.thick(depth - 1, lanes_only)),
            ),
        }
    }

    /// A uniform local no enclosing loop counts with.
    fn free_ulocal(&mut self) -> Option<usize> {
        let free: Vec<usize> = (0..ULOCALS).filter(|u| !self.busy.contains(u)).collect();
        (!free.is_empty()).then(|| *self.shape.pick(&free))
    }

    /// Up to `budget` statements, nested at most `depth` deep.
    fn block(&mut self, budget: &mut usize, depth: usize) -> Vec<Stmt> {
        let mut out = Vec::new();
        let len = 2 + self.index(6);
        while out.len() < len && *budget > 0 {
            *budget -= 1;
            let choice = self.shape.below(if depth == 0 { 12 } else { 16 });
            out.push(match choice {
                0..=3 => Stmt::AssignT(self.index(TLOCALS), self.thick(3, false)),
                4..=6 => Stmt::Store(self.index(ARRAYS), self.offset(), self.thick(3, false)),
                7 => match self.free_ulocal() {
                    Some(u) => Stmt::AssignU(u, self.uniform(2)),
                    None => Stmt::AssignT(0, self.thick(2, false)),
                },
                8 => Stmt::Multi(
                    self.index(SCALARS),
                    *self.vals.pick(&KINDS),
                    self.thick(2, false),
                ),
                9 => Stmt::Prefix(
                    self.index(TLOCALS),
                    self.index(SCALARS),
                    *self.vals.pick(&KINDS),
                    self.thick(2, false),
                ),
                10 | 11 => {
                    // Arms write disjoint slices of one array.
                    let arr = self.index(ARRAYS);
                    let mut off = 0;
                    let arms = (0..2 + self.index(3))
                        .map(|_| {
                            let t = *self.shape.pick(&[1, 4, 16, 24]);
                            let arm = (t, arr, off, self.thick(2, true));
                            off += t;
                            arm
                        })
                        .collect();
                    Stmt::Parallel(arms)
                }
                12 | 13 => Stmt::If(
                    self.uniform(2),
                    self.block(budget, depth - 1),
                    if self.shape.below(2) == 0 {
                        self.block(budget, depth - 1)
                    } else {
                        Vec::new()
                    },
                ),
                _ => match self.free_ulocal() {
                    Some(u) => {
                        self.busy.push(u);
                        let n = self.shape.range(1, 2);
                        let body = self.block(budget, depth - 1);
                        self.busy.pop();
                        if choice == 14 {
                            Stmt::For(u, n, body)
                        } else {
                            Stmt::While(u, n, body)
                        }
                    }
                    None => Stmt::AssignT(0, self.thick(2, false)),
                },
            });
        }
        out
    }

    fn func(&mut self, stmts: usize) -> Vec<Stmt> {
        let mut budget = stmts;
        let mut body = Vec::new();
        while budget > 0 {
            body.extend(self.block(&mut budget, 3));
        }
        if self.shape.below(3) == 0 {
            body.push(Stmt::Numa {
                n: self.shape.range(4, 24),
                init: self.constant(),
                mul: self.vals.range(2, 7),
                scalar: self.index(SCALARS),
            });
        }
        body
    }
}

// ---- rendering to tce -------------------------------------------------

fn render_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Int(v) if *v < 0 => write!(out, "({v})").unwrap(),
        Expr::Int(v) => write!(out, "{v}").unwrap(),
        Expr::Tid => out.push('.'),
        Expr::U(u) => write!(out, "u{u}").unwrap(),
        Expr::T(t) => write!(out, "t{t}").unwrap(),
        Expr::Scalar(s) => write!(out, "s{s}").unwrap(),
        Expr::Load(g, off) => write!(out, "g{g}[. + {off}]").unwrap(),
        Expr::Bin(op, a, b) => {
            out.push('(');
            render_expr(a, out);
            let sym = OPS.iter().find(|(o, _)| o == op).unwrap().1;
            write!(out, " {sym} ").unwrap();
            render_expr(b, out);
            out.push(')');
        }
        Expr::Neg(a) => {
            out.push_str("-(");
            render_expr(a, out);
            out.push(')');
        }
        Expr::Not(a) => {
            out.push_str("!(");
            render_expr(a, out);
            out.push(')');
        }
    }
}

fn render_block(stmts: &[Stmt], ind: usize, out: &mut String) {
    let pad = " ".repeat(4 * ind);
    let line = |out: &mut String, head: &str, e: &Expr, tail: &str| {
        out.push_str(&pad);
        out.push_str(head);
        render_expr(e, out);
        out.push_str(tail);
        out.push('\n');
    };
    for s in stmts {
        match s {
            Stmt::AssignU(u, e) => line(out, &format!("u{u} = "), e, ";"),
            Stmt::AssignT(t, e) => line(out, &format!("t{t} = "), e, ";"),
            Stmt::Store(g, off, e) => line(out, &format!("g{g}[. + {off}] = "), e, ";"),
            Stmt::If(c, then_s, else_s) => {
                line(out, "if (", c, ") {");
                render_block(then_s, ind + 1, out);
                if !else_s.is_empty() {
                    writeln!(out, "{pad}}} else {{").unwrap();
                    render_block(else_s, ind + 1, out);
                }
                writeln!(out, "{pad}}}").unwrap();
            }
            Stmt::For(u, n, body) => {
                writeln!(out, "{pad}for (u{u} = 0; u{u} < {n}; u{u} += 1) {{").unwrap();
                render_block(body, ind + 1, out);
                writeln!(out, "{pad}}}").unwrap();
            }
            Stmt::While(u, n, body) => {
                writeln!(out, "{pad}u{u} = 0;\n{pad}while (u{u} < {n}) {{").unwrap();
                render_block(body, ind + 1, out);
                writeln!(out, "{pad}    u{u} += 1;\n{pad}}}").unwrap();
            }
            Stmt::Multi(s, k, e) => line(out, &format!("multi(s{s}, {}, ", k.name()), e, ");"),
            Stmt::Prefix(t, s, k, e) => {
                line(out, &format!("t{t} = prefix(s{s}, {}, ", k.name()), e, ");")
            }
            Stmt::Parallel(arms) => {
                writeln!(out, "{pad}parallel {{").unwrap();
                for (t, g, off, e) in arms {
                    line(out, &format!("    #{t}: g{g}[. + {off}] = "), e, ";");
                }
                writeln!(out, "{pad}}}").unwrap();
            }
            Stmt::Numa {
                n,
                init,
                mul,
                scalar,
            } => writeln!(
                out,
                "{pad}numa (4) {{
{pad}    u0 = 0;
{pad}    u1 = {init};
{pad}    while (u0 < {n}) {{
{pad}        u1 = (u1 * {mul} + u0) & 65535;
{pad}        u0 += 1;
{pad}    }}
{pad}    s{scalar} = u1;
{pad}}}"
            )
            .unwrap(),
        }
    }
}

fn render(p: &Prog) -> String {
    let mut out = String::new();
    for s in 0..SCALARS {
        writeln!(out, "shared int s{s} @ {};", SCALAR_BASE + s).unwrap();
    }
    writeln!(out, "shared int sel @ {SEL};").unwrap();
    for g in 0..ARRAYS {
        writeln!(
            out,
            "shared int g{g}[{ARRAY_LEN}] @ {};",
            ARRAY_BASE + g * ARRAY_LEN
        )
        .unwrap();
    }
    for (k, body) in p.funcs.iter().enumerate() {
        writeln!(out, "void f{k}() {{\n    #{THICK};").unwrap();
        for u in 0..ULOCALS {
            writeln!(out, "    int u{u} = {u};").unwrap();
        }
        for t in 0..TLOCALS {
            writeln!(out, "    int t{t} = . * {};", t + 1).unwrap();
        }
        render_block(body, 1, &mut out);
        out.push_str("}\n");
    }
    out.push_str("void main() {\n");
    for k in 0..p.funcs.len() {
        if is_cold(k) {
            writeln!(out, "    if (sel == {k}) {{ f{k}(); }}").unwrap();
        } else {
            writeln!(out, "    f{k}();").unwrap();
        }
    }
    out.push_str("}\n");
    out
}

// ---- the oracle ---------------------------------------------------------

struct Eval {
    scalars: [Word; SCALARS],
    arrays: Vec<Word>,
    u: [Word; ULOCALS],
    t: [[Word; THICK]; TLOCALS],
}

impl Eval {
    fn expr(&self, e: &Expr, lane: usize) -> Word {
        match e {
            Expr::Int(v) => *v,
            Expr::Tid => lane as Word,
            Expr::U(u) => self.u[*u],
            Expr::T(t) => self.t[*t][lane],
            Expr::Scalar(s) => self.scalars[*s],
            Expr::Load(g, off) => self.arrays[g * ARRAY_LEN + lane + off],
            Expr::Bin(op, a, b) => op.eval(self.expr(a, lane), self.expr(b, lane)),
            Expr::Neg(a) => self.expr(a, lane).wrapping_neg(),
            Expr::Not(a) => (self.expr(a, lane) == 0) as Word,
        }
    }

    /// One thick expression over all lanes (statement-level lockstep: every
    /// lane reads before any lane writes).
    fn lanes(&self, e: &Expr, thickness: usize) -> Vec<Word> {
        (0..thickness).map(|lane| self.expr(e, lane)).collect()
    }

    fn block(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            match s {
                Stmt::AssignU(u, e) => self.u[*u] = self.expr(e, 0),
                Stmt::AssignT(t, e) => {
                    let v = self.lanes(e, THICK);
                    self.t[*t].copy_from_slice(&v);
                }
                Stmt::Store(g, off, e) => {
                    let v = self.lanes(e, THICK);
                    let at = g * ARRAY_LEN + off;
                    self.arrays[at..at + THICK].copy_from_slice(&v);
                }
                Stmt::If(c, then_s, else_s) => {
                    if self.expr(c, 0) != 0 {
                        self.block(then_s)
                    } else {
                        self.block(else_s)
                    }
                }
                Stmt::For(u, n, body) | Stmt::While(u, n, body) => {
                    self.u[*u] = 0;
                    while self.u[*u] < *n {
                        self.block(body);
                        self.u[*u] += 1;
                    }
                }
                Stmt::Multi(s, k, e) => {
                    let v = self.lanes(e, THICK);
                    self.scalars[*s] = v.iter().fold(self.scalars[*s], |a, &b| k.combine(a, b));
                }
                Stmt::Prefix(t, s, k, e) => {
                    // Exclusive prefix in lane order, seeded with the old word.
                    let v = self.lanes(e, THICK);
                    let mut acc = self.scalars[*s];
                    for (lane, &x) in v.iter().enumerate() {
                        self.t[*t][lane] = acc;
                        acc = k.combine(acc, x);
                    }
                    self.scalars[*s] = acc;
                }
                Stmt::Parallel(arms) => {
                    for (t, g, off, e) in arms {
                        let v = self.lanes(e, *t);
                        let at = g * ARRAY_LEN + off;
                        self.arrays[at..at + t].copy_from_slice(&v);
                    }
                }
                Stmt::Numa {
                    n,
                    init,
                    mul,
                    scalar,
                } => {
                    self.u[0] = 0;
                    self.u[1] = *init;
                    while self.u[0] < *n {
                        self.u[1] = (self.u[1].wrapping_mul(*mul).wrapping_add(self.u[0])) & 65535;
                        self.u[0] += 1;
                    }
                    self.scalars[*scalar] = self.u[1];
                }
            }
        }
    }

    fn run(p: &Prog, arrays: Vec<Word>) -> Eval {
        let mut ev = Eval {
            scalars: [0; SCALARS],
            arrays,
            u: [0; ULOCALS],
            t: [[0; THICK]; TLOCALS],
        };
        for (k, body) in p.funcs.iter().enumerate() {
            if is_cold(k) && p.sel != k as Word {
                continue;
            }
            for (u, slot) in ev.u.iter_mut().enumerate() {
                *slot = u as Word;
            }
            for (t, lanes) in ev.t.iter_mut().enumerate() {
                for (lane, slot) in lanes.iter_mut().enumerate() {
                    *slot = (lane * (t + 1)) as Word;
                }
            }
            ev.block(body);
        }
        ev
    }
}

pub fn build(seed: u64, scale: Scale) -> Vec<Job> {
    let mut vals = Rng::new(seed, 6);
    let programs = scale.pick(20, 2);
    let funcs = scale.pick(40, 10);
    let stmts = scale.pick(40, 6);
    (0..programs)
        .map(|k| {
            let mut gen = Gen {
                shape: Rng::new(SHAPE_SEED, k as u64),
                vals: &mut vals,
                busy: Vec::new(),
            };
            let funcs: Vec<Vec<Stmt>> = (0..funcs).map(|_| gen.func(stmts)).collect();
            let cold: Vec<usize> = (0..funcs.len()).filter(|&f| is_cold(f)).collect();
            let sel = *gen.shape.pick(&cold) as Word;
            let prog = Prog { funcs, sel };
            let input: Vec<Word> = (0..ARRAYS * ARRAY_LEN)
                .map(|_| vals.range(-50, 200))
                .collect();
            let ev = Eval::run(&prog, input.clone());
            let mut job = Job::new(
                &format!("corpus_{k:02}"),
                Source::Tce(render(&prog)),
                Variant::SingleInstruction,
                1 << 16,
            );
            job.pokes.push((ARRAY_BASE, input));
            job.pokes.push((SEL, vec![prog.sel]));
            job.expect.push((SCALAR_BASE, ev.scalars.to_vec()));
            job.expect.push((ARRAY_BASE, ev.arrays));
            job
        })
        .collect()
}
