//! Store-to-load forwarding (SLF) — the analysis of Fig. 3 and the pass of
//! §4.
//!
//! The abstract domain assigns to every shared location one of
//!
//! * `x ↦ ◦(v)` — `v` was written to `x` by the most recent write and no
//!   release write has been executed since;
//! * `x ↦ •(v)` — as above, but a release has been executed while a full
//!   release–acquire pair has not;
//! * `x ↦ ⊤` — anything else.
//!
//! ordered `◦(v) ⊑ •(v) ⊑ ⊤`. A read `a := x^na` rewrites to `a := v` when
//! the token is `◦(v)` or `•(v)`: even if the permission on `x` was lost at
//! the release, the *memory value* of `x` is still `v`, so the read returns
//! `v` or `undef` — and `v ⊑ undef` makes the rewrite sound (§4).

use std::collections::BTreeMap;

use seqwm_lang::{Expr, Loc, Program, ReadMode, Stmt, WriteMode};

use crate::pipeline::PassStats;

/// An SLF abstract token (Fig. 3). `⊤` is represented by absence from the
/// map.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Token {
    /// `◦(v)`: fresh write, no release since.
    Circle(i64),
    /// `•(v)`: a release intervened, no acquire since.
    Bullet(i64),
}

/// The abstract state: locations not present map to `⊤`.
pub type State = BTreeMap<Loc, Token>;

/// The join of two abstract states (pointwise least upper bound).
fn join(a: &State, b: &State) -> State {
    let mut out = State::new();
    for (x, ta) in a {
        if let Some(tb) = b.get(x) {
            let j = match (ta, tb) {
                (Token::Circle(v), Token::Circle(w)) if v == w => Some(Token::Circle(*v)),
                (Token::Circle(v), Token::Bullet(w))
                | (Token::Bullet(v), Token::Circle(w))
                | (Token::Bullet(v), Token::Bullet(w))
                    if v == w =>
                {
                    Some(Token::Bullet(*v))
                }
                _ => None, // different values: ⊤
            };
            if let Some(j) = j {
                out.insert(*x, j);
            }
        }
    }
    out
}

/// Does this statement perform a release (write, fence, or RMW write-side)?
pub(crate) fn is_release(s: &Stmt) -> bool {
    match s {
        Stmt::Store(_, WriteMode::Rel, _) => true,
        Stmt::Fence(m) => m.is_release(),
        Stmt::Cas { mode, .. } | Stmt::Fadd { mode, .. } => mode.write_mode() == WriteMode::Rel,
        _ => false,
    }
}

/// Does this statement perform an acquire (read, fence, or RMW read-side)?
pub(crate) fn is_acquire(s: &Stmt) -> bool {
    match s {
        Stmt::Load(_, _, ReadMode::Acq) => true,
        Stmt::Fence(m) => m.is_acquire(),
        Stmt::Cas { mode, .. } | Stmt::Fadd { mode, .. } => mode.read_mode() == ReadMode::Acq,
        _ => false,
    }
}

/// Applies the transfer function of Fig. 3 for an atomic (leaf) statement,
/// *after* any rewriting of the statement itself.
fn transfer(s: &Stmt, state: &mut State) {
    // •(v) → ⊤ for every location.
    let acquire = |state: &mut State| state.retain(|_, t| matches!(t, Token::Circle(_)));
    // Order matters: SEQ steps an RMW as its acquire read then its
    // release write, but a composite fence as its release part then its
    // acquire part (`RelFence`, then `Acq`).
    let fence = matches!(s, Stmt::Fence(_));
    if !fence && is_acquire(s) {
        acquire(state);
    }
    if is_release(s) {
        // ◦(v) → •(v) for every location.
        for t in state.values_mut() {
            if let Token::Circle(v) = *t {
                *t = Token::Bullet(v);
            }
        }
    }
    if fence && is_acquire(s) {
        acquire(state);
    }
    match s {
        Stmt::Store(x, WriteMode::Na, e) => {
            match e {
                Expr::Const(v) => match v.as_int() {
                    Some(n) => {
                        state.insert(*x, Token::Circle(n));
                    }
                    None => {
                        state.remove(x); // store of undef: ⊤
                    }
                },
                _ => {
                    state.remove(x); // non-constant store: ⊤ (conservative)
                }
            }
        }
        // Atomic stores to x (no na/at mixing, so x is never na-read; we
        // still invalidate defensively).
        Stmt::Store(x, _, _) => {
            state.remove(x);
        }
        Stmt::Cas { loc, .. } | Stmt::Fadd { loc, .. } => {
            state.remove(loc);
        }
        _ => {}
    }
}

/// The SLF pass: rewrite analysis + transformation.
pub struct StoreToLoadForwarding;

impl StoreToLoadForwarding {
    /// Runs the pass on a whole program.
    pub fn run(prog: &Program) -> (Program, PassStats) {
        let mut stats = PassStats::new("slf");
        let mut state = State::new(); // ⊤ everywhere (initial, Fig. 3)
        let body = rewrite(&prog.body, &mut state, &mut stats);
        (Program::new(body), stats)
    }
}

fn rewrite(s: &Stmt, state: &mut State, stats: &mut PassStats) -> Stmt {
    match s {
        Stmt::Seq(a, b) => {
            let a2 = rewrite(a, state, stats);
            let b2 = rewrite(b, state, stats);
            Stmt::seq(a2, b2)
        }
        Stmt::If(c, a, b) => {
            let mut sa = state.clone();
            let mut sb = state.clone();
            let a2 = rewrite(a, &mut sa, stats);
            let b2 = rewrite(b, &mut sb, stats);
            *state = join(&sa, &sb);
            Stmt::If(c.clone(), Box::new(a2), Box::new(b2))
        }
        Stmt::While(c, body) => {
            // Fixpoint of the loop head state (the paper proves at most
            // three iterations are needed; we assert a small cap).
            let mut head = state.clone();
            let mut iterations = 0;
            loop {
                iterations += 1;
                stats.note_iterations(iterations);
                let mut out = head.clone();
                let mut throwaway = PassStats::new("slf");
                let _ = rewrite(body, &mut out, &mut throwaway);
                let next = join(&head, &out);
                if next == head {
                    break;
                }
                head = next;
                assert!(
                    iterations <= 8,
                    "SLF loop analysis failed to stabilize (paper bound: 3)"
                );
            }
            let mut body_state = head.clone();
            let body2 = rewrite(body, &mut body_state, stats);
            *state = head;
            Stmt::While(c.clone(), Box::new(body2))
        }
        // The rewrite: a := x^na with token ◦(v)/•(v) becomes a := v.
        Stmt::Load(r, x, ReadMode::Na) => {
            if let Some(Token::Circle(v) | Token::Bullet(v)) = state.get(x).copied() {
                stats.rewrites += 1;
                Stmt::Assign(*r, Expr::int(v))
            } else {
                s.clone()
            }
        }
        leaf => {
            let out = leaf.clone();
            transfer(&out, state);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqwm_lang::parser::{parse_program, parse_stmt};

    fn run(src: &str) -> (String, PassStats) {
        let p = parse_program(src).unwrap();
        let (out, stats) = StoreToLoadForwarding::run(&p);
        (out.to_string(), stats)
    }

    #[test]
    fn example_1_1_basic_forwarding() {
        let (out, stats) = run("store[na](s1x, 1); b := load[na](s1x); return b;");
        assert!(out.contains("b := 1;"), "{out}");
        assert_eq!(stats.rewrites, 1);
    }

    #[test]
    fn figure_4_example() {
        // The paper's Fig. 4: both loads of x are forwarded to 42, across
        // the acquire read and the release write.
        let (out, stats) = run("store[na](f4x, 42);
             l := load[acq](f4y);
             if (l == 0) { a := load[na](f4x); }
             store[rel](f4y, 1);
             b := load[na](f4x);
             return b;");
        assert!(
            out.contains("a := 42;"),
            "then-branch load forwarded: {out}"
        );
        assert!(
            out.contains("b := 42;"),
            "post-release load forwarded: {out}"
        );
        assert_eq!(stats.rewrites, 2);
    }

    #[test]
    fn release_acquire_pair_blocks_forwarding() {
        // Example 2.12: a release followed by an acquire invalidates. A
        // fence that is both release and acquire is such a pair.
        for pair in [
            "store[rel](s2y, 1); l := load[acq](s2z);",
            "fence[acqrel];",
            "fence[sc];",
        ] {
            let (out, stats) = run(&format!(
                "store[na](s2x, 1); {pair} b := load[na](s2x); return b;"
            ));
            assert!(out.contains("b := load[na](s2x);"), "{pair}: {out}");
            assert_eq!(stats.rewrites, 0, "{pair}");
        }
    }

    #[test]
    fn acquire_alone_does_not_block() {
        // Example 2.11 with α = acquire read: still forwardable.
        let (out, stats) =
            run("store[na](s3x, 1); l := load[acq](s3y); b := load[na](s3x); return b;");
        assert!(out.contains("b := 1;"), "{out}");
        assert_eq!(stats.rewrites, 1);
    }

    #[test]
    fn intervening_write_kills_token() {
        let (out, _) = run("store[na](s4x, 1); store[na](s4x, 2); b := load[na](s4x); return b;");
        assert!(out.contains("b := 2;"), "{out}");
        assert!(!out.contains("b := 1;"));
    }

    #[test]
    fn non_constant_store_is_conservative() {
        let (out, stats) = run("a := choose(1, 2); store[na](s5x, a); b := load[na](s5x);");
        assert!(out.contains("b := load[na](s5x);"), "{out}");
        assert_eq!(stats.rewrites, 0);
    }

    #[test]
    fn join_of_branches() {
        // Both branches write 7 → forwardable after the join.
        let (out, _) = run("l := load[rlx](s6y);
             if (l == 0) { store[na](s6x, 7); } else { store[na](s6x, 7); }
             b := load[na](s6x);");
        assert!(out.contains("b := 7;"), "{out}");
        // Different values → not forwardable.
        let (out, _) = run("l := load[rlx](s7y);
             if (l == 0) { store[na](s7x, 7); } else { store[na](s7x, 8); }
             b := load[na](s7x);");
        assert!(out.contains("b := load[na](s7x);"), "{out}");
    }

    #[test]
    fn loop_fixpoint_within_three_iterations() {
        let (out, stats) = run("store[na](s8x, 1);
             while (i < 10) {
                 a := load[na](s8x);
                 store[rel](s8f, 1);
                 i := i + 1;
             }
             b := load[na](s8x);");
        // In-loop load: on the second iteration the state at the loop head
        // is •(1) (after the release) ⊔ ◦(1) = •(1) — still forwardable.
        assert!(out.contains("a := 1;"), "{out}");
        assert!(out.contains("b := 1;"), "{out}");
        assert!(
            stats.max_fixpoint_iterations <= 3,
            "fixpoint in ≤ 3 iterations (paper §4), got {}",
            stats.max_fixpoint_iterations
        );
    }

    #[test]
    fn loop_with_acquire_invalidates() {
        let (out, _) = run("store[na](s9x, 1);
             while (i < 10) {
                 store[rel](s9f, 1);
                 l := load[acq](s9g);
                 i := i + 1;
             }
             b := load[na](s9x);");
        assert!(out.contains("b := load[na](s9x);"), "{out}");
    }

    #[test]
    fn store_of_undef_is_top() {
        let p = parse_stmt("store[na](sux, undef); b := load[na](sux);").unwrap();
        let (out, stats) = StoreToLoadForwarding::run(&Program::new(p));
        assert_eq!(stats.rewrites, 0);
        assert!(out.to_string().contains("load[na](sux)"));
    }
}
